//! Microservice application graphs and request types.
//!
//! Two end-to-end applications from the DeathStarBench suite are modelled,
//! matching the ones the paper deploys on its Pixel 3A cloudlet (Section 6):
//!
//! * **SocialNetwork** — compose-post (write) and read-home-timeline (read)
//!   request types over ~29 services (nginx, Thrift logic tiers, Redis,
//!   memcached, MongoDB, Cassandra, Jaeger).
//! * **HotelReservation** — a mixed workload of search, recommend, login and
//!   reserve requests over ~19 Go/gRPC services.
//!
//! Per-call CPU costs are expressed in milliseconds on a *reference core*
//! (one Pixel 3A big core); they are calibrated so that the simulated
//! saturation throughputs match the paper's measurements (see
//! `EXPERIMENTS.md`). Message sizes drive the shared-WiFi bandwidth model.

use std::fmt;

use crate::service::{ServiceKind, ServiceSpec};

/// One RPC issued while serving a request: which service runs, how much CPU
/// it burns and how large the request/response messages are.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCall {
    service: String,
    cpu_ms: f64,
    request_bytes: f64,
    response_bytes: f64,
}

impl ServiceCall {
    /// Creates a call.
    ///
    /// # Panics
    ///
    /// Panics if any value is negative.
    #[must_use]
    pub fn new(
        service: impl Into<String>,
        cpu_ms: f64,
        request_bytes: f64,
        response_bytes: f64,
    ) -> Self {
        assert!(cpu_ms >= 0.0, "CPU cost cannot be negative");
        assert!(
            request_bytes >= 0.0 && response_bytes >= 0.0,
            "message sizes cannot be negative"
        );
        Self {
            service: service.into(),
            cpu_ms,
            request_bytes,
            response_bytes,
        }
    }

    /// A small RPC with typical Thrift/gRPC message sizes.
    #[must_use]
    pub fn rpc(service: impl Into<String>, cpu_ms: f64) -> Self {
        Self::new(service, cpu_ms, 350.0, 350.0)
    }

    /// The called service's name.
    #[must_use]
    pub fn service(&self) -> &str {
        &self.service
    }

    /// CPU cost in reference-core milliseconds.
    #[must_use]
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ms
    }

    /// Request message size in bytes.
    #[must_use]
    pub fn request_bytes(&self) -> f64 {
        self.request_bytes
    }

    /// Response message size in bytes.
    #[must_use]
    pub fn response_bytes(&self) -> f64 {
        self.response_bytes
    }
}

/// A stage of a request: a set of calls issued in parallel from the
/// request's frontend; the stage finishes when all calls have returned.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    calls: Vec<ServiceCall>,
}

impl Stage {
    /// Creates a stage from its parallel calls.
    ///
    /// # Panics
    ///
    /// Panics if the stage has no calls.
    #[must_use]
    pub fn parallel(calls: Vec<ServiceCall>) -> Self {
        assert!(!calls.is_empty(), "a stage needs at least one call");
        Self { calls }
    }

    /// Creates a stage with a single call.
    #[must_use]
    pub fn single(call: ServiceCall) -> Self {
        Self::parallel(vec![call])
    }

    /// The calls issued in this stage.
    #[must_use]
    pub fn calls(&self) -> &[ServiceCall] {
        &self.calls
    }

    /// Total CPU cost of the stage.
    #[must_use]
    pub fn total_cpu_ms(&self) -> f64 {
        self.calls.iter().map(ServiceCall::cpu_ms).sum()
    }
}

/// One request type of an application (for example "compose post").
#[derive(Debug, Clone, PartialEq)]
pub struct RequestType {
    name: String,
    weight: f64,
    client_cpu_ms: f64,
    client_response_bytes: f64,
    stages: Vec<Stage>,
}

impl RequestType {
    /// Creates a request type.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not strictly positive or there are no stages.
    #[must_use]
    pub fn new(name: impl Into<String>, weight: f64, stages: Vec<Stage>) -> Self {
        assert!(weight > 0.0, "request-type weight must be positive");
        assert!(
            !stages.is_empty(),
            "a request type needs at least one stage"
        );
        Self {
            name: name.into(),
            weight,
            client_cpu_ms: 0.3,
            client_response_bytes: 1_000.0,
            stages,
        }
    }

    /// Sets the CPU cost a *colocated* load generator pays per request of
    /// this type (the paper runs the client on the same EC2 instance).
    #[must_use]
    pub fn client_cpu_ms(mut self, cpu_ms: f64) -> Self {
        self.client_cpu_ms = cpu_ms;
        self
    }

    /// Sets the size of the final response returned to the client.
    #[must_use]
    pub fn client_response_bytes(mut self, bytes: f64) -> Self {
        self.client_response_bytes = bytes;
        self
    }

    /// Request-type name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Relative weight in a mixed workload.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// CPU cost of a colocated client per request, reference-core ms.
    #[must_use]
    pub fn client_cost_ms(&self) -> f64 {
        self.client_cpu_ms
    }

    /// Size of the final response to the client, bytes.
    #[must_use]
    pub fn response_to_client_bytes(&self) -> f64 {
        self.client_response_bytes
    }

    /// The request's stages, in execution order.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Scales every stage's CPU cost by `factor`.
    ///
    /// The per-call costs in this module are estimates; the built-in
    /// applications apply a single calibration factor per application so
    /// that the simulated saturation throughput of the ten-phone cloudlet
    /// matches the paper's measured values (see `EXPERIMENTS.md`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        for stage in &mut self.stages {
            for call in &mut stage.calls {
                call.cpu_ms *= factor;
            }
        }
        self
    }

    /// Total server-side CPU cost of one request, reference-core ms.
    #[must_use]
    pub fn total_cpu_ms(&self) -> f64 {
        self.stages.iter().map(Stage::total_cpu_ms).sum()
    }
}

impl fmt::Display for RequestType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} stages, {:.1} ms CPU)",
            self.name,
            self.stages.len(),
            self.total_cpu_ms()
        )
    }
}

/// A complete microservice application.
#[derive(Debug, Clone, PartialEq)]
pub struct Application {
    name: String,
    frontend: String,
    services: Vec<ServiceSpec>,
    request_types: Vec<RequestType>,
    client_workers: u32,
}

impl Application {
    /// Creates an application.
    ///
    /// # Panics
    ///
    /// Panics if the service list or request-type list is empty, or the
    /// frontend service is not in the service list.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        frontend: impl Into<String>,
        services: Vec<ServiceSpec>,
        request_types: Vec<RequestType>,
    ) -> Self {
        let frontend = frontend.into();
        assert!(!services.is_empty(), "an application needs services");
        assert!(
            !request_types.is_empty(),
            "an application needs request types"
        );
        assert!(
            services.iter().any(|s| s.name() == frontend),
            "frontend service must exist"
        );
        Self {
            name: name.into(),
            frontend,
            services,
            request_types,
            client_workers: 4,
        }
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the frontend (entry-point) service.
    #[must_use]
    pub fn frontend(&self) -> &str {
        &self.frontend
    }

    /// All services of the application.
    #[must_use]
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// All request types of the application.
    #[must_use]
    pub fn request_types(&self) -> &[RequestType] {
        &self.request_types
    }

    /// Looks up a request type by name.
    #[must_use]
    pub fn request_type(&self, name: &str) -> Option<&RequestType> {
        self.request_types.iter().find(|r| r.name() == name)
    }

    /// Number of worker threads a colocated load generator uses.
    #[must_use]
    pub fn client_workers(&self) -> u32 {
        self.client_workers
    }

    /// Total resident memory of all services, GiB.
    #[must_use]
    pub fn total_memory_gib(&self) -> f64 {
        self.services.iter().map(ServiceSpec::memory_gib).sum()
    }

    /// Looks up a service by name.
    #[must_use]
    pub fn service(&self, name: &str) -> Option<&ServiceSpec> {
        self.services.iter().find(|s| s.name() == name)
    }

    /// `true` when every call of every request type refers to a declared
    /// service (used as an internal consistency check).
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.request_types.iter().all(|rt| {
            rt.stages()
                .iter()
                .flat_map(|s| s.calls().iter())
                .all(|c| self.service(c.service()).is_some())
        })
    }
}

/// Name of the SocialNetwork write (compose post) request type.
pub const SN_COMPOSE_POST: &str = "compose-post";
/// Name of the SocialNetwork read (home timeline) request type.
pub const SN_READ_HOME_TIMELINE: &str = "read-home-timeline";
/// Name of the SocialNetwork read (user timeline) request type.
pub const SN_READ_USER_TIMELINE: &str = "read-user-timeline";

/// The DeathStarBench SocialNetwork application.
#[must_use]
pub fn social_network() -> Application {
    use ServiceKind::{Cache, Frontend, Logic, Storage, Tracing};
    let services = vec![
        ServiceSpec::new("nginx-web-server", Frontend, 0.30),
        ServiceSpec::new("media-frontend", Frontend, 0.20),
        ServiceSpec::new("compose-post-service", Logic, 0.20),
        ServiceSpec::new("text-service", Logic, 0.15),
        ServiceSpec::new("user-service", Logic, 0.15),
        ServiceSpec::new("media-service", Logic, 0.15),
        ServiceSpec::new("unique-id-service", Logic, 0.10),
        ServiceSpec::new("url-shorten-service", Logic, 0.15),
        ServiceSpec::new("user-mention-service", Logic, 0.15),
        ServiceSpec::new("post-storage-service", Logic, 0.20),
        ServiceSpec::new("user-timeline-service", Logic, 0.20),
        ServiceSpec::new("home-timeline-service", Logic, 0.20),
        ServiceSpec::new("social-graph-service", Logic, 0.20),
        ServiceSpec::new("home-timeline-redis", Cache, 0.50),
        ServiceSpec::new("user-timeline-redis", Cache, 0.50),
        ServiceSpec::new("social-graph-redis", Cache, 0.40),
        ServiceSpec::new("post-storage-memcached", Cache, 0.40),
        ServiceSpec::new("url-shorten-memcached", Cache, 0.20),
        ServiceSpec::new("user-memcached", Cache, 0.30),
        ServiceSpec::new("post-storage-mongo", Storage, 0.80),
        ServiceSpec::new("user-timeline-mongo", Storage, 0.70),
        ServiceSpec::new("social-graph-mongo", Storage, 0.60),
        ServiceSpec::new("user-mongo", Storage, 0.50),
        ServiceSpec::new("media-mongo", Storage, 0.50),
        ServiceSpec::new("url-shorten-mongo", Storage, 0.40),
        ServiceSpec::new("cassandra", Storage, 1.00),
        ServiceSpec::new("cassandra-schema", Storage, 0.10),
        ServiceSpec::new("jaeger-agent", Tracing, 0.20),
        ServiceSpec::new("jaeger-collector", Tracing, 0.30),
        ServiceSpec::new("jaeger-query", Tracing, 0.20),
    ];

    let compose_post = RequestType::new(
        SN_COMPOSE_POST,
        1.0,
        vec![
            Stage::single(ServiceCall::new("nginx-web-server", 1.2, 800.0, 300.0)),
            Stage::single(ServiceCall::rpc("compose-post-service", 2.0)),
            Stage::parallel(vec![
                ServiceCall::rpc("text-service", 1.5),
                ServiceCall::rpc("user-service", 1.0),
                ServiceCall::rpc("unique-id-service", 0.5),
                ServiceCall::new("media-service", 1.0, 900.0, 300.0),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("url-shorten-service", 1.0),
                ServiceCall::rpc("user-mention-service", 1.0),
                ServiceCall::rpc("url-shorten-mongo", 0.8),
                ServiceCall::rpc("url-shorten-memcached", 0.4),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("post-storage-service", 1.5),
                ServiceCall::new("post-storage-mongo", 2.0, 900.0, 300.0),
                ServiceCall::rpc("post-storage-memcached", 0.6),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("user-timeline-service", 1.0),
                ServiceCall::rpc("user-timeline-mongo", 1.5),
                ServiceCall::rpc("user-timeline-redis", 0.5),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("home-timeline-service", 1.0),
                ServiceCall::rpc("social-graph-service", 0.8),
                ServiceCall::rpc("social-graph-redis", 0.5),
                ServiceCall::rpc("home-timeline-redis", 0.6),
            ]),
            Stage::single(ServiceCall::rpc("jaeger-collector", 0.3)),
        ],
    )
    .scaled(0.29)
    // Composing a post makes the colocated generator do real work (build the
    // text, unique ids and media payload), which is what caps the paper's
    // single-instance write throughput near 2,000 QPS.
    .client_cpu_ms(1.2)
    .client_response_bytes(500.0);

    let read_home = RequestType::new(
        SN_READ_HOME_TIMELINE,
        1.0,
        vec![
            Stage::single(ServiceCall::new("nginx-web-server", 2.0, 400.0, 400.0)),
            Stage::single(ServiceCall::rpc("home-timeline-service", 3.0)),
            Stage::single(ServiceCall::new("home-timeline-redis", 1.5, 300.0, 2_500.0)),
            Stage::parallel(vec![
                ServiceCall::new("post-storage-service", 3.5, 400.0, 1_000.0),
                ServiceCall::new("post-storage-memcached", 1.2, 400.0, 3_000.0),
                ServiceCall::new("post-storage-mongo", 3.0, 400.0, 3_000.0),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("user-service", 1.5),
                ServiceCall::new("media-service", 1.0, 300.0, 1_500.0),
            ]),
            Stage::single(ServiceCall::rpc("jaeger-collector", 0.3)),
        ],
    )
    .scaled(0.26)
    // Reading a timeline returns the whole timeline to the client.
    .client_cpu_ms(0.2)
    .client_response_bytes(6_000.0);

    let read_user = RequestType::new(
        SN_READ_USER_TIMELINE,
        1.0,
        vec![
            Stage::single(ServiceCall::new("nginx-web-server", 2.0, 400.0, 400.0)),
            Stage::single(ServiceCall::rpc("user-timeline-service", 3.0)),
            Stage::parallel(vec![
                ServiceCall::new("user-timeline-redis", 1.5, 300.0, 2_500.0),
                ServiceCall::new("user-timeline-mongo", 3.0, 400.0, 3_000.0),
            ]),
            Stage::parallel(vec![
                ServiceCall::new("post-storage-service", 4.5, 400.0, 1_000.0),
                ServiceCall::new("post-storage-memcached", 1.2, 400.0, 3_000.0),
            ]),
            Stage::single(ServiceCall::rpc("jaeger-collector", 0.3)),
        ],
    )
    .scaled(0.26)
    .client_cpu_ms(0.2)
    .client_response_bytes(6_000.0);

    Application::new(
        "SocialNetwork",
        "nginx-web-server",
        services,
        vec![compose_post, read_home, read_user],
    )
}

/// Name of the HotelReservation search request type.
pub const HOTEL_SEARCH: &str = "search-hotel";
/// Name of the HotelReservation recommendation request type.
pub const HOTEL_RECOMMEND: &str = "recommend";
/// Name of the HotelReservation login request type.
pub const HOTEL_LOGIN: &str = "user-login";
/// Name of the HotelReservation reservation request type.
pub const HOTEL_RESERVE: &str = "reserve";

/// The DeathStarBench HotelReservation application with its mixed workload
/// (roughly 60 % search, 39 % recommend, 0.5 % login, 0.5 % reserve).
#[must_use]
pub fn hotel_reservation() -> Application {
    use ServiceKind::{Cache, Frontend, Logic, Storage, Tracing};
    let services = vec![
        ServiceSpec::new("frontend", Frontend, 0.30),
        ServiceSpec::new("search", Logic, 0.20),
        ServiceSpec::new("geo", Logic, 0.20),
        ServiceSpec::new("rate", Logic, 0.20),
        ServiceSpec::new("profile", Logic, 0.20),
        ServiceSpec::new("recommendation", Logic, 0.20),
        ServiceSpec::new("user", Logic, 0.15),
        ServiceSpec::new("reservation", Logic, 0.20),
        ServiceSpec::new("memcached-profile", Cache, 0.30),
        ServiceSpec::new("memcached-rate", Cache, 0.30),
        ServiceSpec::new("memcached-reserve", Cache, 0.20),
        ServiceSpec::new("mongodb-geo", Storage, 0.40),
        ServiceSpec::new("mongodb-profile", Storage, 0.50),
        ServiceSpec::new("mongodb-rate", Storage, 0.40),
        ServiceSpec::new("mongodb-recommendation", Storage, 0.40),
        ServiceSpec::new("mongodb-reservation", Storage, 0.40),
        ServiceSpec::new("mongodb-user", Storage, 0.30),
        ServiceSpec::new("consul", Logic, 0.20),
        ServiceSpec::new("jaeger", Tracing, 0.30),
    ];

    let search = RequestType::new(
        HOTEL_SEARCH,
        0.60,
        vec![
            Stage::single(ServiceCall::new("frontend", 2.0, 500.0, 400.0)),
            Stage::single(ServiceCall::rpc("search", 2.5)),
            Stage::parallel(vec![
                ServiceCall::rpc("geo", 2.0),
                ServiceCall::rpc("rate", 2.5),
            ]),
            Stage::parallel(vec![
                ServiceCall::rpc("memcached-rate", 1.0),
                ServiceCall::new("mongodb-rate", 2.0, 400.0, 1_200.0),
            ]),
            Stage::single(ServiceCall::rpc("profile", 3.0)),
            Stage::parallel(vec![
                ServiceCall::rpc("memcached-profile", 1.0),
                ServiceCall::new("mongodb-profile", 2.5, 400.0, 1_500.0),
            ]),
            Stage::single(ServiceCall::rpc("jaeger", 0.3)),
        ],
    )
    .scaled(0.22)
    .client_cpu_ms(0.3)
    .client_response_bytes(2_000.0);

    let recommend = RequestType::new(
        HOTEL_RECOMMEND,
        0.39,
        vec![
            Stage::single(ServiceCall::new("frontend", 1.8, 450.0, 400.0)),
            Stage::single(ServiceCall::rpc("recommendation", 3.0)),
            Stage::single(ServiceCall::new(
                "mongodb-recommendation",
                3.0,
                400.0,
                1_200.0,
            )),
            Stage::single(ServiceCall::rpc("profile", 3.0)),
            Stage::parallel(vec![
                ServiceCall::rpc("memcached-profile", 1.0),
                ServiceCall::new("mongodb-profile", 2.5, 400.0, 1_500.0),
            ]),
            Stage::single(ServiceCall::rpc("jaeger", 0.3)),
        ],
    )
    .scaled(0.22)
    .client_cpu_ms(0.3)
    .client_response_bytes(1_800.0);

    let login = RequestType::new(
        HOTEL_LOGIN,
        0.005,
        vec![
            Stage::single(ServiceCall::new("frontend", 1.0, 400.0, 300.0)),
            Stage::single(ServiceCall::rpc("user", 1.5)),
            Stage::single(ServiceCall::rpc("mongodb-user", 1.5)),
        ],
    )
    .scaled(0.22)
    .client_cpu_ms(0.2)
    .client_response_bytes(400.0);

    let reserve = RequestType::new(
        HOTEL_RESERVE,
        0.005,
        vec![
            Stage::single(ServiceCall::new("frontend", 1.5, 500.0, 300.0)),
            Stage::single(ServiceCall::rpc("reservation", 2.0)),
            Stage::parallel(vec![
                ServiceCall::rpc("memcached-reserve", 1.0),
                ServiceCall::rpc("mongodb-reservation", 2.5),
            ]),
            Stage::single(ServiceCall::rpc("user", 1.0)),
            Stage::single(ServiceCall::rpc("jaeger", 0.3)),
        ],
    )
    .scaled(0.22)
    .client_cpu_ms(0.3)
    .client_response_bytes(600.0);

    Application::new(
        "HotelReservation",
        "frontend",
        services,
        vec![search, recommend, login, reserve],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_network_is_consistent() {
        let app = social_network();
        assert!(app.is_consistent());
        assert_eq!(app.frontend(), "nginx-web-server");
        assert!(app.services().len() >= 28);
        assert_eq!(app.request_types().len(), 3);
    }

    #[test]
    fn hotel_reservation_is_consistent() {
        let app = hotel_reservation();
        assert!(app.is_consistent());
        assert!(app.services().len() >= 18);
        assert_eq!(app.request_types().len(), 4);
        // Mixed-workload weights follow the DeathStarBench generator.
        let search = app.request_type(HOTEL_SEARCH).unwrap();
        assert!((search.weight() - 0.60).abs() < 1e-12);
    }

    #[test]
    fn compose_post_costs_more_cpu_than_a_read() {
        let app = social_network();
        let write = app.request_type(SN_COMPOSE_POST).unwrap().total_cpu_ms();
        let read = app
            .request_type(SN_READ_HOME_TIMELINE)
            .unwrap()
            .total_cpu_ms();
        assert!(write > read, "write {write} ms vs read {read} ms");
        assert!(write > 5.0 && write < 8.5, "write {write} ms");
        assert!(read > 3.2 && read < 6.5, "read {read} ms");
    }

    #[test]
    fn reads_return_more_data_than_writes() {
        let app = social_network();
        let write = app.request_type(SN_COMPOSE_POST).unwrap();
        let read = app.request_type(SN_READ_HOME_TIMELINE).unwrap();
        assert!(read.response_to_client_bytes() > write.response_to_client_bytes());
        // The write path is the expensive one for a colocated generator.
        assert!(write.client_cost_ms() > read.client_cost_ms());
    }

    #[test]
    fn memory_fits_a_ten_phone_cloudlet() {
        // 10 Pixel 3As have 40 GiB of RAM; either application must fit with
        // headroom.
        assert!(social_network().total_memory_gib() < 20.0);
        assert!(hotel_reservation().total_memory_gib() < 10.0);
    }

    #[test]
    fn hotel_mixed_cpu_is_about_20ms() {
        let app = hotel_reservation();
        let total_weight: f64 = app.request_types().iter().map(RequestType::weight).sum();
        let weighted: f64 = app
            .request_types()
            .iter()
            .map(|r| r.weight() * r.total_cpu_ms())
            .sum::<f64>()
            / total_weight;
        assert!(weighted > 3.2 && weighted < 6.0, "got {weighted} ms");
    }

    #[test]
    fn unknown_request_type_lookup() {
        assert!(social_network().request_type("nonexistent").is_none());
        assert!(social_network().service("nonexistent").is_none());
    }

    #[test]
    #[should_panic(expected = "frontend service must exist")]
    fn missing_frontend_panics() {
        let _ = Application::new(
            "broken",
            "ghost",
            vec![ServiceSpec::new("a", ServiceKind::Logic, 0.1)],
            vec![RequestType::new(
                "r",
                1.0,
                vec![Stage::single(ServiceCall::rpc("a", 1.0))],
            )],
        );
    }

    #[test]
    fn stage_and_call_accessors() {
        let call = ServiceCall::new("svc", 2.0, 100.0, 200.0);
        assert_eq!(call.service(), "svc");
        assert_eq!(call.request_bytes(), 100.0);
        assert_eq!(call.response_bytes(), 200.0);
        let stage = Stage::parallel(vec![call.clone(), ServiceCall::rpc("svc", 1.0)]);
        assert_eq!(stage.calls().len(), 2);
        assert!((stage.total_cpu_ms() - 3.0).abs() < 1e-12);
    }
}
