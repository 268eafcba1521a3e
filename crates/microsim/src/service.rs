//! Microservice definitions.
//!
//! A microservice application is a set of named services (frontends, logic
//! tiers, caches, databases, tracing sidecars) that requests traverse.
//! Each service has a memory footprint that constrains placement; the work a
//! request performs *at* a service is described per request type in
//! [`crate::app`].

use std::fmt;

/// Broad role of a service, used for placement spreading and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ServiceKind {
    /// HTTP entry point (nginx, frontend).
    Frontend,
    /// Business-logic tier (Thrift/gRPC services).
    Logic,
    /// In-memory cache (memcached, Redis).
    Cache,
    /// Persistent store (MongoDB, Cassandra).
    Storage,
    /// Observability sidecars (Jaeger).
    Tracing,
    /// Load generator running inside the deployment (colocated client).
    Client,
}

impl ServiceKind {
    /// Human-readable kind name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::Frontend => "frontend",
            ServiceKind::Logic => "logic",
            ServiceKind::Cache => "cache",
            ServiceKind::Storage => "storage",
            ServiceKind::Tracing => "tracing",
            ServiceKind::Client => "client",
        }
    }
}

impl fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One deployable microservice.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    name: String,
    kind: ServiceKind,
    memory_gib: f64,
}

impl ServiceSpec {
    /// Creates a service.
    ///
    /// # Panics
    ///
    /// Panics if the memory footprint is negative.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: ServiceKind, memory_gib: f64) -> Self {
        assert!(memory_gib >= 0.0, "memory footprint cannot be negative");
        Self {
            name: name.into(),
            kind,
            memory_gib,
        }
    }

    /// Service name (matches the DeathStarBench container names where
    /// applicable).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Role of the service.
    #[must_use]
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }

    /// Resident memory footprint in GiB, used by the placement scheduler.
    #[must_use]
    pub fn memory_gib(&self) -> f64 {
        self.memory_gib
    }
}

impl fmt::Display for ServiceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {:.2} GiB)",
            self.name, self.kind, self.memory_gib
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_accessors() {
        let s = ServiceSpec::new("nginx-web-server", ServiceKind::Frontend, 0.25);
        assert_eq!(s.name(), "nginx-web-server");
        assert_eq!(s.kind(), ServiceKind::Frontend);
        assert!((s.memory_gib() - 0.25).abs() < 1e-12);
        assert!(s.to_string().contains("frontend"));
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_memory_panics() {
        let _ = ServiceSpec::new("bad", ServiceKind::Cache, -1.0);
    }

    #[test]
    fn kind_names() {
        assert_eq!(ServiceKind::Storage.to_string(), "storage");
        assert_eq!(ServiceKind::Client.name(), "client");
    }
}
