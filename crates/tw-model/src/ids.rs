//! Interned identifiers for services, operations (API endpoints) and RPCs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A microservice (e.g. `frontend`, `search`, `geo`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

/// An API operation within a service (e.g. `GET /hotels`). The paper calls
/// this the API endpoint; together with the callee service it identifies a
/// span's target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OperationId(pub u32);

/// One RPC (request-response exchange) on the wire. Both the caller-side
/// and callee-side observations of the exchange share the `RpcId` — this
/// models the fact that the two sides of one network flow can be linked by
/// the 5-tuple without any application cooperation (paper §4.1: "the
/// outgoing R2 at A and the incoming R2 at B are the same and can be
/// linked"). It does NOT leak parent-child information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RpcId(pub u64);

/// The callee side of a call: which operation on which service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    pub service: ServiceId,
    pub op: OperationId,
}

impl Endpoint {
    pub fn new(service: ServiceId, op: OperationId) -> Self {
        Endpoint { service, op }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc{}#op{}", self.service.0, self.op.0)
    }
}

/// String interner mapping human-readable service / operation names to ids.
///
/// Applications register their topology here once; spans then carry compact
/// ids. An id is its name's index, and a name lookup scans the names: a
/// topology holds tens of them, and the names are the catalog's one copy,
/// so a deserialized catalog looks up and interns like the original.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    services: Vec<String>,
    operations: Vec<String>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Intern a service name, returning its id (idempotent).
    pub fn service(&mut self, name: &str) -> ServiceId {
        self.lookup_service(name).unwrap_or_else(|| {
            self.services.push(name.to_string());
            ServiceId(self.services.len() as u32 - 1)
        })
    }

    /// Intern an operation name, returning its id (idempotent).
    pub fn operation(&mut self, name: &str) -> OperationId {
        self.lookup_operation(name).unwrap_or_else(|| {
            self.operations.push(name.to_string());
            OperationId(self.operations.len() as u32 - 1)
        })
    }

    /// Convenience: intern both halves of an endpoint.
    pub fn endpoint(&mut self, service: &str, op: &str) -> Endpoint {
        Endpoint {
            service: self.service(service),
            op: self.operation(op),
        }
    }

    pub fn service_name(&self, id: ServiceId) -> &str {
        self.services
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown-service>")
    }

    pub fn operation_name(&self, id: OperationId) -> &str {
        self.operations
            .get(id.0 as usize)
            .map(String::as_str)
            .unwrap_or("<unknown-op>")
    }

    pub fn endpoint_name(&self, e: Endpoint) -> String {
        format!(
            "{}:{}",
            self.service_name(e.service),
            self.operation_name(e.op)
        )
    }

    pub fn lookup_service(&self, name: &str) -> Option<ServiceId> {
        let i = self.services.iter().position(|s| s == name);
        i.map(|i| ServiceId(i as u32))
    }

    pub fn lookup_operation(&self, name: &str) -> Option<OperationId> {
        let i = self.operations.iter().position(|s| s == name);
        i.map(|i| OperationId(i as u32))
    }

    pub fn num_services(&self) -> usize {
        self.services.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut c = Catalog::new();
        let a = c.service("frontend");
        let b = c.service("frontend");
        assert_eq!(a, b);
        assert_eq!(c.num_services(), 1);
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let mut c = Catalog::new();
        let a = c.service("a");
        let b = c.service("b");
        assert_ne!(a, b);
        assert_eq!(c.service_name(a), "a");
        assert_eq!(c.service_name(b), "b");
    }

    #[test]
    fn endpoint_interning() {
        let mut c = Catalog::new();
        let e = c.endpoint("search", "GET /nearby");
        assert_eq!(c.endpoint_name(e), "search:GET /nearby");
        assert_eq!(c.lookup_service("search"), Some(e.service));
        assert_eq!(c.lookup_operation("GET /nearby"), Some(e.op));
        assert_eq!(c.lookup_service("nope"), None);
    }

    #[test]
    fn unknown_ids_do_not_panic() {
        let c = Catalog::new();
        assert_eq!(c.service_name(ServiceId(9)), "<unknown-service>");
        assert_eq!(c.operation_name(OperationId(9)), "<unknown-op>");
    }

    /// A deserialized catalog finds every name and interns an existing
    /// one to its old id, not a second one.
    #[test]
    fn serde_round_trip_keeps_lookups_and_ids() {
        let mut c = Catalog::new();
        let ep = c.endpoint("frontend", "GET /hotels");
        let geo = c.service("geo");
        let json = serde_json::to_string(&c).unwrap();
        let mut back: Catalog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.lookup_service("geo"), Some(geo));
        assert_eq!(back.lookup_operation("GET /hotels"), Some(ep.op));
        assert_eq!(back.endpoint("frontend", "GET /hotels"), ep);
        assert_eq!(back.service("geo"), geo);
        assert_eq!(back.num_services(), 2);
        assert_eq!(back.service("search"), ServiceId(2));
    }
}
