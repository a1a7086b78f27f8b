//! Call graphs and dependency order (paper §2.1).
//!
//! A [`DependencySpec`] describes, for one served endpoint, which backend
//! endpoints the service invokes and in what order: a sequence of *stages*,
//! each stage being a set of calls issued in parallel; a stage only starts
//! once every call of the previous stage has returned. This captures both
//! examples from the paper's Figure 1: service A calling B then C
//! sequentially is two single-call stages; service B calling D and E in
//! parallel is one two-call stage.
//!
//! A [`CallGraph`] maps every served endpoint of an application to its
//! spec, which lets the reconstruction recursively know the full tree shape
//! for any front-end operation.

use crate::ids::Endpoint;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One stage: backend calls issued concurrently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stage {
    pub calls: Vec<Endpoint>,
}

impl Stage {
    pub fn parallel(calls: Vec<Endpoint>) -> Self {
        Stage { calls }
    }

    pub fn single(call: Endpoint) -> Self {
        Stage { calls: vec![call] }
    }
}

/// Dependency order at one served endpoint: sequential stages of parallel
/// calls. An empty spec is a leaf (the service answers locally).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DependencySpec {
    pub stages: Vec<Stage>,
}

impl DependencySpec {
    pub fn leaf() -> Self {
        DependencySpec { stages: vec![] }
    }

    pub fn new(stages: Vec<Stage>) -> Self {
        DependencySpec { stages }
    }

    /// All backend endpoints invoked, in stage order.
    pub fn all_calls(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.stages.iter().flat_map(|s| s.calls.iter().copied())
    }

    /// Total number of backend calls made per request.
    pub fn num_calls(&self) -> usize {
        self.stages.iter().map(|s| s.calls.len()).sum()
    }

    pub fn is_leaf(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Application-wide call graph: a spec for every served endpoint.
///
/// Serialized as a list of `(endpoint, spec)` pairs because JSON map keys
/// must be strings.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CallGraph {
    #[serde(with = "specs_as_pairs")]
    specs: HashMap<Endpoint, DependencySpec>,
}

mod specs_as_pairs {
    use super::*;
    use serde::{Deserializer, Serializer};

    pub fn serialize<S: Serializer>(
        map: &HashMap<Endpoint, DependencySpec>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        let mut pairs: Vec<(&Endpoint, &DependencySpec)> = map.iter().collect();
        pairs.sort_by_key(|(e, _)| **e);
        serde::Serialize::serialize(&pairs, ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<HashMap<Endpoint, DependencySpec>, D::Error> {
        let pairs: Vec<(Endpoint, DependencySpec)> = serde::Deserialize::deserialize(de)?;
        Ok(pairs.into_iter().collect())
    }
}

impl CallGraph {
    pub fn new() -> Self {
        CallGraph::default()
    }

    /// Register the spec for a served endpoint. Returns the previous spec
    /// if the endpoint was already registered.
    pub fn insert(&mut self, served: Endpoint, spec: DependencySpec) -> Option<DependencySpec> {
        self.specs.insert(served, spec)
    }

    /// Spec for a served endpoint; unknown endpoints are treated as leaves.
    pub fn spec(&self, served: Endpoint) -> DependencySpec {
        self.specs.get(&served).cloned().unwrap_or_default()
    }

    /// Borrowing accessor; `None` when the endpoint was never registered.
    pub fn get(&self, served: Endpoint) -> Option<&DependencySpec> {
        self.specs.get(&served)
    }

    pub fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        self.specs.keys().copied()
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Validate the graph: no endpoint may (transitively) call itself, and
    /// no service may call its own endpoints (paper assumption: spans cross
    /// process boundaries).
    pub fn validate(&self) -> Result<(), CallGraphError> {
        for (&served, spec) in &self.specs {
            for call in spec.all_calls() {
                if call.service == served.service {
                    return Err(CallGraphError::SelfCall { served, call });
                }
            }
        }
        // Cycle detection via DFS from every endpoint.
        for &start in self.specs.keys() {
            let mut stack = vec![start];
            let mut path = HashSet::new();
            if self.has_cycle(start, &mut path, &mut stack) {
                return Err(CallGraphError::Cycle { endpoint: start });
            }
        }
        Ok(())
    }

    fn has_cycle(
        &self,
        ep: Endpoint,
        path: &mut HashSet<Endpoint>,
        _stack: &mut Vec<Endpoint>,
    ) -> bool {
        if !path.insert(ep) {
            return true;
        }
        let cycle = self
            .spec(ep)
            .all_calls()
            .any(|c| self.has_cycle(c, path, _stack));
        path.remove(&ep);
        cycle
    }
}

/// Errors from [`CallGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallGraphError {
    SelfCall { served: Endpoint, call: Endpoint },
    Cycle { endpoint: Endpoint },
}

impl std::fmt::Display for CallGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallGraphError::SelfCall { served, call } => {
                write!(f, "endpoint {served} calls its own service via {call}")
            }
            CallGraphError::Cycle { endpoint } => {
                write!(f, "call graph contains a cycle through {endpoint}")
            }
        }
    }
}

impl std::error::Error for CallGraphError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{OperationId, ServiceId};

    fn ep(svc: u32, op: u32) -> Endpoint {
        Endpoint::new(ServiceId(svc), OperationId(op))
    }

    /// Figure 1 topology: A calls B then C (sequential); B calls D and E in
    /// parallel; C, D, E are leaves.
    fn figure1() -> CallGraph {
        let mut g = CallGraph::new();
        g.insert(
            ep(0, 0),
            DependencySpec::new(vec![Stage::single(ep(1, 0)), Stage::single(ep(2, 0))]),
        );
        g.insert(
            ep(1, 0),
            DependencySpec::new(vec![Stage::parallel(vec![ep(3, 0), ep(4, 0)])]),
        );
        g.insert(ep(2, 0), DependencySpec::leaf());
        g.insert(ep(3, 0), DependencySpec::leaf());
        g.insert(ep(4, 0), DependencySpec::leaf());
        g
    }

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.spec(ep(0, 0)).num_calls(), 2);
        assert_eq!(g.spec(ep(0, 0)).stages.len(), 2);
        assert_eq!(g.spec(ep(1, 0)).stages.len(), 1);
        assert_eq!(g.spec(ep(1, 0)).stages[0].calls.len(), 2);
        assert!(g.spec(ep(2, 0)).is_leaf());
    }

    #[test]
    fn unknown_endpoint_is_leaf() {
        let g = CallGraph::new();
        assert!(g.spec(ep(9, 9)).is_leaf());
        assert!(g.get(ep(9, 9)).is_none());
    }

    #[test]
    fn validate_accepts_figure1() {
        assert_eq!(figure1().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_self_call() {
        let mut g = CallGraph::new();
        g.insert(ep(0, 0), DependencySpec::new(vec![Stage::single(ep(0, 1))]));
        assert!(matches!(g.validate(), Err(CallGraphError::SelfCall { .. })));
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut g = CallGraph::new();
        g.insert(ep(0, 0), DependencySpec::new(vec![Stage::single(ep(1, 0))]));
        g.insert(ep(1, 0), DependencySpec::new(vec![Stage::single(ep(0, 0))]));
        assert!(matches!(g.validate(), Err(CallGraphError::Cycle { .. })));
    }

    #[test]
    fn all_calls_order_is_stage_order() {
        let g = figure1();
        let calls: Vec<_> = g.spec(ep(0, 0)).all_calls().collect();
        assert_eq!(calls, vec![ep(1, 0), ep(2, 0)]);
    }

    #[test]
    fn serde_round_trip() {
        let g = figure1();
        let json = serde_json::to_string(&g).unwrap();
        let g2: CallGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.spec(ep(0, 0)), g.spec(ep(0, 0)));
        assert_eq!(g2.len(), g.len());
    }
}
