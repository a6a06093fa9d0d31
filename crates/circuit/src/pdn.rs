//! Power-delivery-network (PDN) workload matrices.
//!
//! An on-chip power grid is a resistive mesh: metal straps partition the
//! die into a `rows x cols` grid of supply nodes, every node drains a
//! load current through the circuits under it (a load conductance to
//! ground in the small-signal DC model), and a sparse pattern of
//! package vias ties some nodes stiffly to the external supply. The IR
//! drop analysis `G·v = i_load` over that mesh is one of the highest-
//! volume linear-system workloads in electronic design automation —
//! precisely the kind of repeated same-matrix solve the BlockAMC
//! architecture amortizes array programming over.
//!
//! This module builds such grids as a conductance netlist and exports
//! the netlist's node-conductance matrix, so the scenario registry gets
//! circuit-shaped matrices that are derived from an actual netlist
//! rather than synthesized directly:
//! symmetric, diagonally dominant, SPD (every node leaks to ground),
//! with the 2-D sparsity structure real PDNs have.

use amc_linalg::Matrix;
use rand::Rng;

use crate::mna::{Netlist, GROUND};
use crate::{CircuitError, Result};

/// Geometry and electrical parameters of a PDN grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdnSpec {
    /// Grid rows (supply-node rows).
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Conductance of one metal strap segment between adjacent nodes,
    /// in siemens.
    pub g_wire: f64,
    /// Per-node load conductance to ground (the circuits drawing
    /// current), in siemens.
    pub g_load: f64,
    /// Conductance of a package via tying a node to the supply, in
    /// siemens (vias are much stiffer than loads).
    pub g_via: f64,
    /// Every `via_pitch`-th node (in both directions) gets a via;
    /// `0` disables vias.
    pub via_pitch: usize,
    /// Relative uniform jitter applied to every wire and load
    /// conductance (manufacturing spread), in `[0, 1)`: each element is
    /// scaled by `1 + U(−jitter, +jitter)` from the caller's RNG.
    pub jitter_rel: f64,
}

impl PdnSpec {
    /// A representative on-chip grid: 1 S straps, 0.05 S distributed
    /// loads, 10 S vias every 4th node, 10 % manufacturing spread.
    pub fn default_grid(rows: usize, cols: usize) -> Self {
        PdnSpec {
            rows,
            cols,
            g_wire: 1.0,
            g_load: 0.05,
            g_via: 10.0,
            via_pitch: 4,
            jitter_rel: 0.10,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for an empty grid,
    /// non-positive wire/load conductance, negative via conductance, or
    /// jitter outside `[0, 1)`.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 {
            return Err(CircuitError::config("PDN grid must be non-empty"));
        }
        for (name, g) in [("wire", self.g_wire), ("load", self.g_load)] {
            if !(g.is_finite() && g > 0.0) {
                return Err(CircuitError::config(format!(
                    "PDN {name} conductance must be positive and finite, got {g}"
                )));
            }
        }
        if !(self.g_via.is_finite() && self.g_via >= 0.0) {
            return Err(CircuitError::config(format!(
                "PDN via conductance must be non-negative and finite, got {}",
                self.g_via
            )));
        }
        if !(self.jitter_rel.is_finite() && (0.0..1.0).contains(&self.jitter_rel)) {
            return Err(CircuitError::config(format!(
                "PDN jitter must be in [0, 1), got {}",
                self.jitter_rel
            )));
        }
        Ok(())
    }

    /// Problem size: one unknown node voltage per grid node.
    pub(crate) fn size(&self) -> usize {
        self.rows * self.cols
    }
}

/// Builds the PDN netlist of `spec` and exports its node-conductance
/// matrix (`spec.size()` square, SPD, diagonally dominant).
///
/// The matrix is the `G` of the IR-drop system `G·v = i_load`; jitter
/// draws come from `rng`, so instances are reproducible per seed.
///
/// # Errors
///
/// Parameter validation (`PdnSpec::validate`) and netlist failures.
pub fn pdn_matrix<R: Rng + ?Sized>(spec: &PdnSpec, rng: &mut R) -> Result<Matrix> {
    spec.validate()?;
    let mut net = Netlist::new();
    let nodes = net.nodes(spec.size());
    let at = |r: usize, c: usize| nodes[r * spec.cols + c];
    let jittered = |g: f64, rng: &mut R| -> f64 {
        if spec.jitter_rel == 0.0 {
            g
        } else {
            g * (1.0 + rng.gen_range(-spec.jitter_rel..spec.jitter_rel))
        }
    };
    for r in 0..spec.rows {
        for c in 0..spec.cols {
            if c + 1 < spec.cols {
                let g = jittered(spec.g_wire, rng);
                net.conductance(at(r, c), at(r, c + 1), g)?;
            }
            if r + 1 < spec.rows {
                let g = jittered(spec.g_wire, rng);
                net.conductance(at(r, c), at(r + 1, c), g)?;
            }
            let g = jittered(spec.g_load, rng);
            net.conductance(at(r, c), GROUND, g)?;
            if spec.via_pitch > 0
                && spec.g_via > 0.0
                && r % spec.via_pitch == 0
                && c % spec.via_pitch == 0
            {
                net.conductance(at(r, c), GROUND, spec.g_via)?;
            }
        }
    }
    net.conductance_matrix()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::cholesky;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn pdn_matrix_is_spd_and_dominant() {
        let spec = PdnSpec::default_grid(4, 4);
        let a = pdn_matrix(&spec, &mut rng(1)).unwrap();
        assert_eq!(a.shape(), (16, 16));
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diagonally_dominant());
        assert!(cholesky::is_spd(&a, 0.0));
        // Via sites carry the extra tie to ground on the diagonal.
        assert!(a[(0, 0)] > spec.g_via);
    }

    #[test]
    fn pdn_matrix_is_reproducible_per_seed() {
        let spec = PdnSpec::default_grid(3, 5);
        let a = pdn_matrix(&spec, &mut rng(7)).unwrap();
        let b = pdn_matrix(&spec, &mut rng(7)).unwrap();
        assert_eq!(a, b);
        let c = pdn_matrix(&spec, &mut rng(8)).unwrap();
        assert_ne!(a, c, "different seeds draw different jitter");
    }

    #[test]
    fn jitter_free_grid_matches_hand_stamps() {
        let spec = PdnSpec {
            rows: 1,
            cols: 3,
            g_wire: 2.0,
            g_load: 0.5,
            g_via: 0.0,
            via_pitch: 0,
            jitter_rel: 0.0,
        };
        let a = pdn_matrix(&spec, &mut rng(0)).unwrap();
        // Middle node: two straps + load on the diagonal.
        assert!((a[(1, 1)] - 4.5).abs() < 1e-15);
        assert!((a[(0, 0)] - 2.5).abs() < 1e-15);
        assert!((a[(0, 1)] + 2.0).abs() < 1e-15);
        assert_eq!(a[(0, 2)], 0.0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut r = rng(0);
        let bad = |f: fn(&mut PdnSpec)| {
            let mut s = PdnSpec::default_grid(3, 3);
            f(&mut s);
            pdn_matrix(&s, &mut rng(0)).is_err()
        };
        assert!(bad(|s| s.rows = 0));
        assert!(bad(|s| s.cols = 0));
        assert!(bad(|s| s.g_wire = 0.0));
        assert!(bad(|s| s.g_load = -1.0));
        assert!(bad(|s| s.g_via = -1.0));
        assert!(bad(|s| s.jitter_rel = 1.0));
        assert!(pdn_matrix(&PdnSpec::default_grid(2, 2), &mut r).is_ok());
    }

    #[test]
    fn grid_solves_the_ir_drop_system() {
        // The exported matrix really is the node equation matrix: for a
        // uniform unit load current the drop is largest far from vias.
        let mut spec = PdnSpec::default_grid(5, 5);
        spec.jitter_rel = 0.0;
        spec.via_pitch = 4; // vias at the four corners
        let a = pdn_matrix(&spec, &mut rng(0)).unwrap();
        let i_load = vec![0.01; spec.size()];
        let v = amc_linalg::lu::solve(&a, &i_load).unwrap();
        let center = v[2 * 5 + 2];
        let corner = v[0];
        assert!(center > corner, "IR drop peaks away from the vias");
        assert!(v.iter().all(|&x| x > 0.0));
    }
}
