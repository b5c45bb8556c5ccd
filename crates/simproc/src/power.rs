//! Package power model.
//!
//! Package power is the sum of four components:
//!
//! ```text
//! P_pkg = P_base                                  (package static)
//!       + Σ_cores k_c · V_c(f_c)² · f_c · eff_i   (core dynamic)
//!       + s_u · V_u(f_u)²                          (uncore static/leakage)
//!       + k_u · V_u(f_u)² · f_u · act              (uncore dynamic)
//! ```
//!
//! * `V(f)` is linear in `f` for each domain (the voltage/frequency
//!   operating curve).
//! * `eff_i` is the effective activity of core *i*: `util + halt·(1-util)`
//!   — a core stalled on memory clock-gates most of its pipeline but
//!   still burns a `halt` fraction.
//! * `act` is the uncore activity factor, `a0 + a1 · traffic`, where
//!   `traffic` is achieved memory bandwidth normalized to the DRAM peak.
//!   Even an idle uncore clocks its ring and LLC arrays (`a0`), which is
//!   why running the uncore at 3.0 GHz for a compute-bound program wastes
//!   real energy — the effect Cuttlefish-Uncore exploits on UTS/SOR.
//!
//! The defaults land package power between ~45 W (min frequencies,
//! idle-ish) and ~105 W (all knobs at max, full load), matching the
//! 105 W TDP class of the paper's Xeon E5-2650 v3.

use crate::freq::{Freq, FreqDomain};
use serde::{Deserialize, Serialize};

/// Linear voltage/frequency operating curve for one domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VoltCurve {
    /// Voltage at the domain's minimum frequency.
    pub v_min: f64,
    /// Voltage at the domain's maximum frequency.
    pub v_max: f64,
    /// Frequency range the curve spans.
    pub f_min_ghz: f64,
    pub f_max_ghz: f64,
}

impl VoltCurve {
    pub fn new(domain: &FreqDomain, v_min: f64, v_max: f64) -> Self {
        VoltCurve {
            v_min,
            v_max,
            f_min_ghz: domain.min().ghz(),
            f_max_ghz: domain.max().ghz(),
        }
    }

    /// Operating voltage at frequency `f` (clamped to the curve ends).
    pub fn volts(&self, f: Freq) -> f64 {
        let span = self.f_max_ghz - self.f_min_ghz;
        if span <= 0.0 {
            return self.v_max;
        }
        let t = ((f.ghz() - self.f_min_ghz) / span).clamp(0.0, 1.0);
        self.v_min + t * (self.v_max - self.v_min)
    }
}

/// Parameters of the package power model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerModel {
    /// Package static power independent of both domains, watts.
    pub p_base: f64,
    /// Core dynamic coefficient, watts per (volt² · Hz), per core.
    pub k_core: f64,
    /// Fraction of core dynamic power still burned while stalled
    /// (clock-gating is imperfect).
    pub halt_fraction: f64,
    /// Core voltage curve.
    pub v_core: VoltCurve,
    /// Uncore dynamic coefficient, watts per (volt² · Hz).
    pub k_uncore: f64,
    /// Uncore leakage coefficient, watts per volt².
    pub s_uncore: f64,
    /// Uncore activity floor (ring/LLC clocking with no traffic).
    pub act_floor: f64,
    /// Uncore activity slope versus normalized traffic.
    pub act_slope: f64,
    /// Uncore voltage curve.
    pub v_uncore: VoltCurve,
}

impl PowerModel {
    /// Defaults calibrated for the simulated E5-2650 v3 (see module doc).
    pub fn haswell(core: &FreqDomain, uncore: &FreqDomain) -> Self {
        PowerModel {
            p_base: 20.0,
            k_core: 0.9e-9,
            halt_fraction: 0.25,
            v_core: VoltCurve::new(core, 0.80, 1.00),
            k_uncore: 6.0e-9,
            s_uncore: 14.0,
            act_floor: 0.58,
            act_slope: 0.42,
            v_uncore: VoltCurve::new(uncore, 0.70, 1.00),
        }
    }

    /// Package power in watts.
    ///
    /// * `core_eff` — per-core effective activity (`util + halt·(1-util)`,
    ///   already folded by the caller via [`PowerModel::core_effective`]),
    ///   summed over cores.
    /// * `traffic` — achieved memory bandwidth normalized to DRAM peak,
    ///   in `\[0, 1\]`.
    pub fn package_watts(&self, cf: Freq, uf: Freq, core_eff_sum: f64, traffic: f64) -> f64 {
        self.at(cf, uf).package_watts(core_eff_sum, traffic)
    }

    /// The model evaluated at one `(cf, uf)` operating point: the
    /// frequency-dependent factors of [`package_watts`](Self::package_watts),
    /// computed once for callers that evaluate many quanta at the same
    /// point.
    pub(crate) fn at(&self, cf: Freq, uf: Freq) -> PowerPoint {
        let vc = self.v_core.volts(cf);
        let vu = self.v_uncore.volts(uf);
        PowerPoint {
            p_base: self.p_base,
            act_floor: self.act_floor,
            act_slope: self.act_slope,
            core_dyn_per_eff: self.k_core * vc * vc * cf.hz(),
            uncore_dyn_per_act: self.k_uncore * vu * vu * uf.hz(),
            uncore_static: self.s_uncore * vu * vu,
        }
    }

    /// Effective activity of one core with pipeline utilization `util`
    /// (an idle, parked core has `util = 0` and still burns the halt
    /// fraction — matching a core spinning in the OS idle loop at its
    /// clock-gated floor).
    #[inline]
    pub fn core_effective(&self, util: f64) -> f64 {
        let u = util.clamp(0.0, 1.0);
        u + self.halt_fraction * (1.0 - u)
    }

    /// Uncore voltage curve (public for tests and docs).
    pub fn uncore_volts(&self, uf: Freq) -> f64 {
        self.v_uncore.volts(uf)
    }
}

/// A [`PowerModel`] at one `(cf, uf)` operating point
/// ([`PowerModel::at`]). The factors are the left-associative prefixes
/// of the model's products, so [`package_watts`](Self::package_watts)
/// performs the same IEEE operations in the same order as
/// [`PowerModel::package_watts`] and returns the same bits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PowerPoint {
    p_base: f64,
    act_floor: f64,
    act_slope: f64,
    /// `k_c · V_c² · f_c`.
    core_dyn_per_eff: f64,
    /// `k_u · V_u² · f_u`.
    uncore_dyn_per_act: f64,
    /// `s_u · V_u²`.
    uncore_static: f64,
}

impl PowerPoint {
    /// Package power in watts; arguments as for
    /// [`PowerModel::package_watts`].
    pub(crate) fn package_watts(&self, core_eff_sum: f64, traffic: f64) -> f64 {
        let core_dyn = self.core_dyn_per_eff * core_eff_sum;
        let act = self.act_floor + self.act_slope * traffic.clamp(0.0, 1.0);
        let uncore_dyn = self.uncore_dyn_per_act * act;
        self.p_base + core_dyn + self.uncore_static + uncore_dyn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::HASWELL_2650V3;

    fn pm() -> PowerModel {
        let m = &*HASWELL_2650V3;
        PowerModel::haswell(&m.core, &m.uncore)
    }

    #[test]
    fn volt_curve_endpoints_and_monotonicity() {
        let m = &*HASWELL_2650V3;
        let c = VoltCurve::new(&m.core, 0.8, 1.0);
        assert!((c.volts(Freq(12)) - 0.8).abs() < 1e-12);
        assert!((c.volts(Freq(23)) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for f in m.core.iter() {
            let v = c.volts(f);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn power_increases_with_each_knob() {
        let p = pm();
        let base = p.package_watts(Freq(12), Freq(12), 20.0 * 0.5, 0.5);
        assert!(p.package_watts(Freq(23), Freq(12), 20.0 * 0.5, 0.5) > base);
        assert!(p.package_watts(Freq(12), Freq(30), 20.0 * 0.5, 0.5) > base);
        assert!(p.package_watts(Freq(12), Freq(12), 20.0 * 0.9, 0.5) > base);
        assert!(p.package_watts(Freq(12), Freq(12), 20.0 * 0.5, 1.0) > base);
    }

    #[test]
    fn full_tilt_power_in_tdp_class() {
        let p = pm();
        let w = p.package_watts(Freq(23), Freq(30), 20.0, 1.0);
        assert!(
            (85.0..125.0).contains(&w),
            "max power should be in the 105W TDP class, got {w}"
        );
    }

    #[test]
    fn idle_floor_is_substantial() {
        // Server packages have a large idle floor — the race-to-idle
        // effect for compute-bound code depends on it.
        let p = pm();
        let w = p.package_watts(Freq(12), Freq(12), 20.0 * p.core_effective(0.0), 0.0);
        assert!((25.0..50.0).contains(&w), "idle power {w}");
    }

    #[test]
    fn core_effective_bounds() {
        let p = pm();
        assert!((p.core_effective(1.0) - 1.0).abs() < 1e-12);
        assert!((p.core_effective(0.0) - p.halt_fraction).abs() < 1e-12);
        assert!(p.core_effective(0.5) > p.core_effective(0.1));
    }
}
