//! The common output type of all solvers.

use arbodom_graph::{Graph, NodeId};

use crate::PackingCertificate;

/// A dominating set together with the evidence the algorithm produced.
#[derive(Clone, Debug)]
pub struct DsResult {
    /// Membership flags, indexed by node id.
    pub in_ds: Vec<bool>,
    /// Total weight of the set.
    pub weight: u64,
    /// Number of nodes in the set.
    pub size: usize,
    /// Algorithm-level iterations executed; each costs `O(1)` CONGEST
    /// rounds, so this is the paper's round-complexity measure up to a
    /// constant. (The bit-faithful programs in [`crate::distributed`]
    /// report exact simulated rounds via telemetry.)
    pub iterations: usize,
    /// Feasible packing certificate, when the algorithm is primal-dual:
    /// its [`PackingCertificate::lower_bound`] is ≤ OPT by Lemma 2.1.
    pub certificate: Option<PackingCertificate>,
}

impl DsResult {
    /// Assembles a result from membership flags.
    pub fn from_flags(
        g: &Graph,
        in_ds: Vec<bool>,
        iterations: usize,
        certificate: Option<PackingCertificate>,
    ) -> Self {
        assert_eq!(in_ds.len(), g.n(), "flag vector must cover all nodes");
        let size = in_ds.iter().filter(|&&b| b).count();
        let weight = g
            .nodes()
            .filter(|v| in_ds[v.index()])
            .map(|v| g.weight(v))
            .sum();
        DsResult {
            in_ds,
            weight,
            size,
            iterations,
            certificate,
        }
    }

    /// The nodes in the dominating set, in id order.
    pub fn members(&self) -> Vec<NodeId> {
        self.in_ds
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Certified upper bound on the approximation ratio:
    /// `weight / certificate.lower_bound()`. `None` when the algorithm
    /// produced no certificate or the bound is degenerate.
    pub fn certified_ratio(&self) -> Option<f64> {
        let lb = self.certificate.as_ref()?.lower_bound();
        (lb > 0.0).then(|| self.weight as f64 / lb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbodom_graph::generators;

    #[test]
    fn from_flags_computes_weight_and_size() {
        let g = generators::path(4).with_weights(vec![2, 3, 5, 7]).unwrap();
        let r = DsResult::from_flags(&g, vec![true, false, true, false], 3, None);
        assert_eq!(r.size, 2);
        assert_eq!(r.weight, 7);
        assert_eq!(r.iterations, 3);
        assert_eq!(r.members(), vec![NodeId::new(0), NodeId::new(2)]);
        assert_eq!(r.certified_ratio(), None);
    }

    #[test]
    fn certified_ratio_uses_lower_bound() {
        let g = generators::path(2);
        let cert = PackingCertificate::new(vec![0.5, 0.5]);
        let r = DsResult::from_flags(&g, vec![true, false], 1, Some(cert));
        assert!((r.certified_ratio().unwrap() - 1.0).abs() < 1e-12);
    }
}
