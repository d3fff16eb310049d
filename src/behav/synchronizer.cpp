#include "behav/synchronizer.hpp"

#include <cmath>

#include "util/stats.hpp"

namespace lsl::behav {

Synchronizer::Synchronizer(const SyncParams& p, double eye_center, double vc0, std::size_t phase0)
    : p_(p), dll_(p.dll), vcdl_(p.vcdl), eye_center_(eye_center), vc0_(vc0), phase0_(phase0) {}

// Both wraps below are std::fmod with fast paths for the arguments the
// loop almost always sees, each exact: fmod(t, P) is t itself for
// t in [0, P), and t − P for t in [P, 2P), a difference that Sterbenz's
// lemma makes exact (P/2 <= t <= 2P). Anything else, NaN included,
// still goes to std::fmod.
double Synchronizer::sampling_offset(std::size_t k, double vc) const {
  const double t = dll_.phase_offset(k) + vcdl_.delay(vc);
  const double period = dll_.clock_period();
  if (t >= 0.0 && t < period) return t;
  if (t >= period && t < 2.0 * period) return t - period;
  return std::fmod(t, period);
}

double Synchronizer::wrap_err(double err) const {
  const double period = dll_.clock_period();
  if (!(std::fabs(err) < period)) err = std::fmod(err, period);
  if (err > period / 2.0) err -= period;
  if (err < -period / 2.0) err += period;
  return err;
}

SyncResult Synchronizer::run(std::size_t max_ui, util::Pcg32& rng, bool record_trace) {
  SyncResult res;
  const double ui = dll_.clock_period();

  ChargePump pump(p_.pump, vc0_);
  std::size_t k = phase0_;
  const int lock_counter_max = (1 << p_.lock_counter_bits) - 1;

  // FSM hysteresis: a coarse step is issued on the first divided-clock
  // tick with Vc outside the window; the strong pump then owns Vc until
  // it reaches the reset target, and only afterwards can a new coarse
  // step be issued. The FSM commits to at least one divided cycle of
  // strong pumping (it cannot react faster) — a grossly over-strong pump
  // (e.g. a shorted current source) therefore overshoots the window and
  // ping-pongs, saturating the lock detector.
  bool resetting = false;
  bool reset_upward = false;  // strong pump direction during reset
  double reset_target = 0.0;
  std::size_t reset_ui = 0;   // UIs spent in the current reset

  std::size_t in_lock_run = 0;

  if (p_.faults.switch_matrix_dead) {
    // No sampling clock at all: the loop state freezes where it started.
    res.final_phase = k;
    res.final_vc = pump.vc();
    res.final_phase_error = wrap_err(eye_center_ - sampling_offset(k, pump.vc()));
    res.cp_bist_flag = std::fabs(pump.vp() - pump.vc()) > p_.cp_bist_window;
    if (record_trace) res.trace.push_back({0.0, pump.vc(), k, false});
    return res;
  }

  bool ever_locked = false;
  util::RunningStats jitter_stats;

  for (std::size_t n = 0; n < max_ui; ++n) {
    const double t = static_cast<double>(n) * ui;
    // Environmental drift moves the eye during operation.
    const double eye_now = eye_center_ + p_.eye_drift_rate * t;
    const bool frozen = p_.freeze_after_lock && ever_locked;

    // ---- fine loop: Alexander PD on a data transition ----------------
    bool up = false;
    bool dn = false;
    const bool transition = rng.next_double() < p_.activity;
    if (!p_.faults.pd_dead && transition && !frozen) {
      const double err = wrap_err(eye_now - sampling_offset(k, pump.vc())) +
                         p_.jitter_rms * rng.next_gaussian();
      up = err > 0.0;  // sampling early: add delay
      dn = !up;
    }
    if (p_.faults.pd_up_stuck) {
      up = true;
      dn = false;
    } else if (p_.faults.pd_dn_stuck) {
      up = false;
      dn = true;
    }

    if (resetting) {
      pump.strong(reset_upward, !reset_upward, ui);
      ++reset_ui;
      if (reset_ui >= p_.divider && ((reset_upward && pump.vc() >= reset_target) ||
                                     (!reset_upward && pump.vc() <= reset_target))) {
        resetting = false;
      }
    } else {
      pump.pump(up, dn, ui, rng.next_gaussian());
    }

    // ---- coarse loop on the divided clock -----------------------------
    bool coarse_event = false;
    if (n % p_.divider == 0 && !resetting && !frozen) {
      bool above = pump.vc() > p_.vh;
      bool below = pump.vc() < p_.vl;
      if (p_.faults.window_dead) {
        above = false;
        below = false;
      }
      if (p_.faults.window_hi_stuck) above = true;
      if (p_.faults.window_lo_stuck) below = true;

      if (above || below) {
        coarse_event = true;
        ++res.coarse_corrections;
        if (res.lock_counter < lock_counter_max) {
          ++res.lock_counter;
        } else {
          res.lock_counter_saturated = true;
        }
        if (!p_.faults.counter_stuck) {
          const std::size_t np = dll_.n_phases();
          k = above ? (k + 1) % np : (k + np - 1) % np;
        }
        // Strong pump resets Vc across the window toward the opposite
        // threshold (the Fig-2 sawtooth).
        resetting = true;
        reset_ui = 0;
        reset_upward = below;
        const double span = p_.vh - p_.vl;
        reset_target = below ? p_.vh - p_.reset_depth * span : p_.vl + p_.reset_depth * span;
      }
    }

    // ---- lock bookkeeping ---------------------------------------------
    const double err_now = wrap_err(eye_now - sampling_offset(k, pump.vc()));
    const bool in_window = pump.vc() > p_.vl && pump.vc() < p_.vh;
    const double err_limit = p_.lock_err_frac * dll_.phase_step();
    if (!resetting && in_window && std::fabs(err_now) < err_limit) {
      ++in_lock_run;
    } else {
      in_lock_run = 0;
    }
    // Lock reflects the *surviving* run: leaving the locked condition
    // (e.g. a stuck-UP pump dragging Vc onward) clears it again. A
    // frozen (foreground-calibrated) receiver keeps its one-shot lock
    // status by definition — the drift damage shows up in the eye
    // bookkeeping instead.
    if (in_lock_run >= p_.lock_run_ui) {
      if (!res.locked) res.lock_time = t;
      res.locked = true;
      ever_locked = true;
    } else if (!frozen) {
      res.locked = false;
    }

    if (ever_locked) {
      res.max_err_after_lock = std::max(res.max_err_after_lock, std::fabs(err_now));
      if (std::fabs(err_now) > p_.eye_half_width) ++res.ui_outside_eye_after_lock;
      jitter_stats.add(err_now);
    }

    if (record_trace && (coarse_event || n % 8 == 0)) {
      res.trace.push_back({t, pump.vc(), k, coarse_event});
    }
  }

  if (jitter_stats.count() > 1) {
    res.jitter_rms = jitter_stats.stddev();
    res.jitter_pp = jitter_stats.max() - jitter_stats.min();
  }
  res.final_phase = k;
  res.final_vc = pump.vc();
  const double eye_end = eye_center_ + p_.eye_drift_rate * static_cast<double>(max_ui) * ui;
  res.final_phase_error = wrap_err(eye_end - sampling_offset(k, pump.vc()));
  res.cp_bist_flag = std::fabs(pump.vp() - pump.vc()) > p_.cp_bist_window;
  return res;
}

}  // namespace lsl::behav
