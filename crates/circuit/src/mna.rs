//! Modified nodal analysis (MNA) for small analog networks.
//!
//! A DC netlist of conductances, independent voltage sources, and ideal
//! op-amps (nullor stamps). The analytic MVM/INV solutions in
//! [`crate::mvm`]/[`crate::inv`] were *derived* from these node equations;
//! the test build solves explicitly assembled Fig. 1 netlists and checks
//! them against those solutions, closing the loop on the circuit algebra.
//! Outside tests the netlist only assembles resistive grids for
//! [`crate::pdn`] through [`Netlist::conductance_matrix`].
//!
//! Formulation: unknowns are all non-ground node voltages plus one
//! current per voltage source and per op-amp output. Ideal op-amps are
//! nullors: the input pair contributes the constraint `v⁺ = v⁻` (and
//! draws no current); the output contributes an unknown current that
//! makes the constraint satisfiable.

use amc_linalg::Matrix;

use crate::{CircuitError, Result};

/// A node handle. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node(usize);

/// The ground node.
pub(crate) const GROUND: Node = Node(0);

/// A DC netlist under construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct Netlist {
    /// Number of nodes including ground.
    node_count: usize,
    /// `(a, b, conductance)` elements.
    conductances: Vec<(usize, usize, f64)>,
    /// `(plus, minus, volts)` independent sources.
    #[cfg(test)]
    vsources: Vec<(usize, usize, f64)>,
    /// `(v_plus, v_minus, output)` ideal op-amps.
    #[cfg(test)]
    opamps: Vec<(usize, usize, usize)>,
}

/// A solved DC operating point.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OperatingPoint {
    /// Node voltages, index 0 = ground = 0 V.
    pub node_voltages: Vec<f64>,
    /// Currents through the voltage sources (positive flowing from `+`
    /// terminal through the source to `-`), one per source in insertion
    /// order.
    pub source_currents: Vec<f64>,
    /// Op-amp output currents, one per op-amp in insertion order.
    pub opamp_currents: Vec<f64>,
}

impl Netlist {
    /// Creates an empty netlist (ground pre-allocated).
    pub(crate) fn new() -> Self {
        Netlist {
            node_count: 1,
            ..Default::default()
        }
    }

    /// Allocates a new node.
    pub(crate) fn node(&mut self) -> Node {
        let n = Node(self.node_count);
        self.node_count += 1;
        n
    }

    /// Allocates `k` nodes at once.
    pub(crate) fn nodes(&mut self, k: usize) -> Vec<Node> {
        (0..k).map(|_| self.node()).collect()
    }

    /// Adds a conductance between two nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for negative / non-finite
    /// conductance or an unknown node.
    pub(crate) fn conductance(&mut self, a: Node, b: Node, siemens: f64) -> Result<()> {
        self.check_node(a)?;
        self.check_node(b)?;
        if !(siemens.is_finite() && siemens >= 0.0) {
            return Err(CircuitError::config(format!(
                "conductance must be finite and non-negative, got {siemens}"
            )));
        }
        if siemens > 0.0 {
            self.conductances.push((a.0, b.0, siemens));
        }
        Ok(())
    }

    /// Adds an independent voltage source (`plus` − `minus` = `volts`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for a non-finite voltage or
    /// an unknown node.
    #[cfg(test)]
    pub(crate) fn voltage_source(&mut self, plus: Node, minus: Node, volts: f64) -> Result<()> {
        self.check_node(plus)?;
        self.check_node(minus)?;
        if !volts.is_finite() {
            return Err(CircuitError::config("source voltage must be finite"));
        }
        self.vsources.push((plus.0, minus.0, volts));
        Ok(())
    }

    /// Adds an ideal op-amp (nullor): infinite gain forces
    /// `v(v_plus) = v(v_minus)` with zero input current; the output node
    /// sources whatever current is needed.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for an unknown node.
    #[cfg(test)]
    pub(crate) fn ideal_opamp(&mut self, v_plus: Node, v_minus: Node, output: Node) -> Result<()> {
        self.check_node(v_plus)?;
        self.check_node(v_minus)?;
        self.check_node(output)?;
        self.opamps.push((v_plus.0, v_minus.0, output.0));
        Ok(())
    }

    fn check_node(&self, n: Node) -> Result<()> {
        if n.0 < self.node_count {
            Ok(())
        } else {
            Err(CircuitError::config(format!(
                "node {} was not allocated on this netlist",
                n.0
            )))
        }
    }

    /// Solves the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::NoOperatingPoint`] if the MNA system is
    /// singular (floating nodes, contradictory sources, an op-amp with no
    /// feedback path, …).
    #[cfg(test)]
    pub(crate) fn solve(&self) -> Result<OperatingPoint> {
        let nn = self.node_count - 1; // unknown node voltages (ground excluded)
        let extra = self.vsources.len() + self.opamps.len();
        let dim = nn + extra;
        if dim == 0 {
            return Ok(OperatingPoint {
                node_voltages: vec![0.0],
                source_currents: vec![],
                opamp_currents: vec![],
            });
        }
        let mut m = Matrix::zeros(dim, dim);
        let mut rhs = vec![0.0; dim];
        // Map node index -> unknown index (ground maps to None).
        let ui = |node: usize| -> Option<usize> { node.checked_sub(1) };

        for &(a, b, g) in &self.conductances {
            if let Some(i) = ui(a) {
                m[(i, i)] += g;
                if let Some(j) = ui(b) {
                    m[(i, j)] -= g;
                }
            }
            if let Some(j) = ui(b) {
                m[(j, j)] += g;
                if let Some(i) = ui(a) {
                    m[(j, i)] -= g;
                }
            }
        }
        for (k, &(p, q, v)) in self.vsources.iter().enumerate() {
            let row = nn + k;
            // Branch current unknown: flows out of `plus` into the network.
            if let Some(i) = ui(p) {
                m[(i, row)] += 1.0;
                m[(row, i)] += 1.0;
            }
            if let Some(j) = ui(q) {
                m[(j, row)] -= 1.0;
                m[(row, j)] -= 1.0;
            }
            rhs[row] = v;
        }
        for (k, &(vp, vm, out)) in self.opamps.iter().enumerate() {
            let row = nn + self.vsources.len() + k;
            // Constraint row: v(vp) − v(vm) = 0.
            if let Some(i) = ui(vp) {
                m[(row, i)] += 1.0;
            }
            if let Some(j) = ui(vm) {
                m[(row, j)] -= 1.0;
            }
            // Output current column: injected at the output node.
            if let Some(o) = ui(out) {
                m[(o, row)] += 1.0;
            }
        }
        let lu = amc_linalg::lu::LuFactor::new(&m)
            .map_err(|e| CircuitError::no_op_point(format!("MNA system is singular: {e}")))?;
        let sol = lu.solve(&rhs)?;
        let mut node_voltages = vec![0.0; self.node_count];
        node_voltages[1..].copy_from_slice(&sol[..nn]);
        let source_currents = sol[nn..nn + self.vsources.len()].to_vec();
        let opamp_currents = sol[nn + self.vsources.len()..].to_vec();
        Ok(OperatingPoint {
            node_voltages,
            source_currents,
            opamp_currents,
        })
    }

    /// Voltage of a node in a solved operating point.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this netlist.
    #[cfg(test)]
    pub(crate) fn voltage(&self, op: &OperatingPoint, node: Node) -> f64 {
        op.node_voltages[node.0]
    }

    /// Exports the node-conductance matrix of the resistive part of the
    /// netlist: the grounded Laplacian `G` over the non-ground nodes
    /// (`G[i][j] = −g_ij` for `i ≠ j`, `G[i][i] = Σ` conductances at
    /// node `i+1`, ground ties contributing only to the diagonal).
    ///
    /// For a purely resistive netlist this is exactly the matrix of the
    /// node equations `G·v = i_injected` — symmetric, diagonally
    /// dominant, and SPD whenever every connected component has a path
    /// to ground. It is how circuit-shaped workloads (power-delivery
    /// networks, grounded resistor meshes) become linear-system
    /// instances for the solver stack. Voltage sources and op-amps are
    /// *not* represented — their MNA rows are constraints, not
    /// conductances; the test-only MNA solver handles netlists that have
    /// them.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if the netlist has no
    /// non-ground nodes.
    pub(crate) fn conductance_matrix(&self) -> Result<Matrix> {
        let nn = self.node_count - 1;
        if nn == 0 {
            return Err(CircuitError::config(
                "conductance matrix needs at least one non-ground node",
            ));
        }
        let mut g_mat = Matrix::zeros(nn, nn);
        let ui = |node: usize| -> Option<usize> { node.checked_sub(1) };
        for &(a, b, g) in &self.conductances {
            if let Some(i) = ui(a) {
                g_mat[(i, i)] += g;
                if let Some(j) = ui(b) {
                    g_mat[(i, j)] -= g;
                }
            }
            if let Some(j) = ui(b) {
                g_mat[(j, j)] += g;
                if let Some(i) = ui(a) {
                    g_mat[(j, i)] -= g;
                }
            }
        }
        Ok(g_mat)
    }
}

/// Builds and solves the complete Fig. 1(a) **MVM netlist** for a
/// (single, non-negative) conductance matrix: input sources on the bit
/// lines, TIAs (op-amp + feedback `g0`) on the word lines. Returns the
/// TIA output voltages.
///
/// This is the from-first-principles cross-check of
/// [`crate::mvm::solve_mvm`].
///
/// # Errors
///
/// Netlist and operating-point failures.
#[cfg(test)]
pub(crate) fn mvm_netlist(g: &Matrix, g0: f64, v_in: &[f64]) -> Result<Vec<f64>> {
    if v_in.len() != g.cols() {
        return Err(CircuitError::ShapeMismatch {
            op: "mvm_netlist",
            expected: g.cols(),
            got: v_in.len(),
        });
    }
    let mut net = Netlist::new();
    let bl = net.nodes(g.cols());
    let wl = net.nodes(g.rows()); // virtual-ground nodes (op-amp inverting inputs)
    let out = net.nodes(g.rows());
    for (j, &b) in bl.iter().enumerate() {
        net.voltage_source(b, GROUND, v_in[j])?;
    }
    for i in 0..g.rows() {
        for j in 0..g.cols() {
            net.conductance(bl[j], wl[i], g[(i, j)])?;
        }
        net.conductance(wl[i], out[i], g0)?; // TIA feedback
        net.ideal_opamp(GROUND, wl[i], out[i])?; // non-inverting input grounded
    }
    let op = net.solve()?;
    Ok(out.iter().map(|&n| net.voltage(&op, n)).collect())
}

/// Builds and solves the complete Fig. 1(b) **INV netlist** for a
/// (single, non-negative) conductance matrix: inputs injected through
/// `g0` into the word-line virtual grounds, op-amp outputs feeding the
/// bit lines. Returns the op-amp output voltages.
///
/// This is the from-first-principles cross-check of
/// [`crate::inv::solve_inv`].
///
/// # Errors
///
/// Netlist and operating-point failures (a singular `g/g0` has no
/// operating point).
#[cfg(test)]
pub(crate) fn inv_netlist(g: &Matrix, g0: f64, v_in: &[f64]) -> Result<Vec<f64>> {
    if !g.is_square() || v_in.len() != g.rows() {
        return Err(CircuitError::ShapeMismatch {
            op: "inv_netlist",
            expected: g.rows(),
            got: v_in.len(),
        });
    }
    let n = g.rows();
    let mut net = Netlist::new();
    let input = net.nodes(n); // driven input terminals
    let wl = net.nodes(n); // virtual grounds
    let out = net.nodes(n); // op-amp outputs feeding the bit lines
    for i in 0..n {
        net.voltage_source(input[i], GROUND, v_in[i])?;
        net.conductance(input[i], wl[i], g0)?;
        for j in 0..n {
            net.conductance(out[j], wl[i], g[(i, j)])?;
        }
        net.ideal_opamp(GROUND, wl[i], out[i])?;
    }
    let op = net.solve()?;
    Ok(out.iter().map(|&n| net.voltage(&op, n)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::vector;

    #[test]
    fn voltage_divider() {
        let mut net = Netlist::new();
        let top = net.node();
        let mid = net.node();
        net.voltage_source(top, GROUND, 3.0).unwrap();
        net.conductance(top, mid, 1.0).unwrap(); // 1 Ω
        net.conductance(mid, GROUND, 0.5).unwrap(); // 2 Ω
        let op = net.solve().unwrap();
        assert!((net.voltage(&op, mid) - 2.0).abs() < 1e-12);
        // Source current: 1 A through the divider (3 V over 3 Ω total).
        assert!((op.source_currents[0] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverting_amplifier() {
        // Classic inverting amp: gain = −g_in/g_fb = −2.
        let mut net = Netlist::new();
        let vin = net.node();
        let vm = net.node();
        let vout = net.node();
        net.voltage_source(vin, GROUND, 0.5).unwrap();
        net.conductance(vin, vm, 2.0).unwrap();
        net.conductance(vm, vout, 1.0).unwrap();
        net.ideal_opamp(GROUND, vm, vout).unwrap();
        let op = net.solve().unwrap();
        assert!((net.voltage(&op, vout) + 1.0).abs() < 1e-12);
        assert!(net.voltage(&op, vm).abs() < 1e-12, "virtual ground");
    }

    #[test]
    fn mvm_netlist_matches_analytic_solution() {
        let g = Matrix::from_rows(&[&[1e-4, 0.5e-4], &[0.25e-4, 0.75e-4]]).unwrap();
        let g0 = 1e-4;
        let v_in = [0.4, -0.2];
        let from_netlist = mvm_netlist(&g, g0, &v_in).unwrap();
        let analytic = crate::mvm::solve_mvm(
            &g,
            &Matrix::zeros(2, 2),
            g0,
            &v_in,
            crate::opamp::GainModel::Ideal,
        )
        .unwrap();
        assert!(vector::approx_eq(&from_netlist, &analytic.volts, 1e-10));
    }

    #[test]
    fn inv_netlist_matches_analytic_solution() {
        let g = Matrix::from_rows(&[&[2e-4, 0.5e-4], &[0.25e-4, 1.5e-4]]).unwrap();
        let g0 = 1e-4;
        let b = [0.3, -0.1];
        let from_netlist = inv_netlist(&g, g0, &b).unwrap();
        let analytic = crate::inv::solve_inv(
            &g,
            &Matrix::zeros(2, 2),
            g0,
            &b,
            crate::opamp::GainModel::Ideal,
        )
        .unwrap();
        assert!(vector::approx_eq(&from_netlist, &analytic.volts, 1e-10));
    }

    #[test]
    fn inv_netlist_solves_the_linear_system() {
        let g = Matrix::from_rows(&[&[3e-4, 1e-4], &[1e-4, 2e-4]]).unwrap();
        let g0 = 1e-4;
        let b = [0.2, 0.1];
        let v = inv_netlist(&g, g0, &b).unwrap();
        // Ĝ·v = −b with Ĝ = g/g0.
        let g_hat = g.scaled(1.0 / g0);
        let gv = g_hat.matvec(&v).unwrap();
        assert!(vector::approx_eq(&gv, &vector::neg(&b), 1e-10));
    }

    #[test]
    fn rectangular_mvm_netlist() {
        let g = Matrix::from_rows(&[&[1e-4, 0.0, 0.5e-4]]).unwrap(); // 1 WL x 3 BL
        let v = mvm_netlist(&g, 1e-4, &[0.1, 0.9, 0.2]).unwrap();
        assert_eq!(v.len(), 1);
        assert!((v[0] + (0.1 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn singular_inv_netlist_has_no_operating_point() {
        let g = Matrix::filled(2, 2, 1e-4);
        assert!(matches!(
            inv_netlist(&g, 1e-4, &[0.1, 0.1]),
            Err(CircuitError::NoOperatingPoint { .. })
        ));
    }

    #[test]
    fn validation_errors() {
        let mut net = Netlist::new();
        let a = net.node();
        assert!(net.conductance(a, GROUND, -1.0).is_err());
        assert!(net.conductance(a, Node(99), 1.0).is_err());
        assert!(net.voltage_source(a, GROUND, f64::NAN).is_err());
        assert!(net.ideal_opamp(a, GROUND, Node(99)).is_err());
        let g = Matrix::zeros(2, 2);
        assert!(mvm_netlist(&g, 1e-4, &[0.0]).is_err());
        assert!(inv_netlist(&Matrix::zeros(2, 3), 1e-4, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn conductance_matrix_exports_the_node_equations() {
        // Y network: a -(1S)- b, a -(2S)- ground, b -(0.5S)- ground.
        let mut net = Netlist::new();
        let a = net.node();
        let b = net.node();
        net.conductance(a, b, 1.0).unwrap();
        net.conductance(a, GROUND, 2.0).unwrap();
        net.conductance(b, GROUND, 0.5).unwrap();
        let g = net.conductance_matrix().unwrap();
        let expect = Matrix::from_rows(&[&[3.0, -1.0], &[-1.0, 1.5]]).unwrap();
        assert!(g.approx_eq(&expect, 0.0));
        // Grounded network: SPD and consistent with a source solve.
        assert!(amc_linalg::cholesky::is_spd(&g, 0.0));
        let mut driven = net.clone();
        driven.voltage_source(a, GROUND, 1.0).unwrap();
        let op = driven.solve().unwrap();
        // G·v at node b must balance to zero injected current.
        let v = [driven.voltage(&op, a), driven.voltage(&op, b)];
        let i_b = g[(1, 0)] * v[0] + g[(1, 1)] * v[1];
        assert!(i_b.abs() < 1e-12, "KCL at the undriven node: {i_b}");
        // A netlist with only ground has no matrix to export.
        assert!(Netlist::new().conductance_matrix().is_err());
    }

    #[test]
    fn empty_netlist_solves_trivially() {
        let net = Netlist::new();
        let op = net.solve().unwrap();
        assert_eq!(op.node_voltages, vec![0.0]);
    }

    #[test]
    fn floating_node_detected() {
        let mut net = Netlist::new();
        let a = net.node();
        let _floating = net.node();
        net.voltage_source(a, GROUND, 1.0).unwrap();
        assert!(matches!(
            net.solve(),
            Err(CircuitError::NoOperatingPoint { .. })
        ));
    }
}
