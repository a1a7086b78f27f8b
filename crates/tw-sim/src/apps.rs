//! The benchmark applications of the paper's evaluation (§6.1), modeled on
//! DeathStarBench:
//!
//! * [`hotel_reservation`] — 6 services (plus optional A/B recommendation
//!   variants), gRPC-style RPC pools with thread hand-offs,
//! * [`media_microservices`] — 14 services, two API flows (compose review
//!   and read page),
//! * [`nodejs_app`] — 7 services on asynchronous event loops with
//!   non-blocking disk I/O (the §6.2.4 interleaving scenario).
//!
//! Service-time distributions are synthetic but shaped like measured
//! microservice latencies (log-normal bodies, one bimodal service per app
//! to exercise the GMM fitting path). Absolute values are not meant to
//! match the paper's testbed — the reproduction targets the *relative*
//! behaviour of reconstruction algorithms under load, concurrency and
//! dynamism.

use crate::config::{
    AppConfig, CallBehavior, DiskIo, EndpointBehavior, ServiceConfig, StageBehavior, ThreadingModel,
};
use tw_model::ids::{Catalog, Endpoint};
use tw_stats::sampler::DelayDistribution;

/// A named benchmark application: its config, the front-end root
/// endpoints, and a nominal per-container capacity used to express load
/// sweeps as a fraction of the bottleneck (paper §6.2.1: load "calculated
/// based on each app's bottleneck").
#[derive(Debug, Clone)]
pub struct BenchApp {
    pub name: &'static str,
    pub config: AppConfig,
    pub roots: Vec<Endpoint>,
    /// Approximate saturation throughput (requests/second) of the app's
    /// bottleneck container.
    pub capacity_rps: f64,
}

fn lognorm(median_us: f64, sigma: f64) -> DelayDistribution {
    DelayDistribution::LogNormal {
        mu: median_us.ln(),
        sigma,
    }
}

fn us(v: f64) -> DelayDistribution {
    DelayDistribution::Constant { value: v }
}

/// Options for [`hotel_reservation_with`].
#[derive(Debug, Clone, Copy)]
pub struct HotelOptions {
    /// Probability that the search service answers from cache, skipping
    /// its geo and rate backends (Figure 4c's dynamism knob).
    pub search_cache_prob: f64,
    /// Extra latency (µs) injected at the Reservation and Profile services
    /// for requests tagged "slow" (Figure 6c's anomaly).
    pub slow_extra_us: f64,
    /// If set, the frontend also calls a recommendation engine and routes
    /// this fraction of requests to version B instead of A (Figure 6d).
    pub ab_split_to_b: Option<f64>,
    pub seed: u64,
}

impl Default for HotelOptions {
    fn default() -> Self {
        HotelOptions {
            search_cache_prob: 0.0,
            slow_extra_us: 0.0,
            ab_split_to_b: None,
            seed: 42,
        }
    }
}

/// DeathStarBench HotelReservation with default options.
pub fn hotel_reservation(seed: u64) -> BenchApp {
    hotel_reservation_with(HotelOptions {
        seed,
        ..HotelOptions::default()
    })
}

/// DeathStarBench HotelReservation (6 services: frontend, search, geo,
/// rate, reservation, profile). The frontend serves `GET /hotels`:
/// it calls search (which calls geo then rate sequentially), then checks
/// availability at reservation, then fetches profiles — the dependency
/// chain described in the DeathStarBench paper.
pub fn hotel_reservation_with(opts: HotelOptions) -> BenchApp {
    let mut cat = Catalog::new();
    let frontend = cat.service("frontend");
    let search = cat.service("search");
    let geo = cat.service("geo");
    let rate = cat.service("rate");
    let reservation = cat.service("reservation");
    let profile = cat.service("profile");

    let op_hotels = cat.operation("GET /hotels");
    let op_nearby = cat.operation("Search.Nearby");
    let op_near = cat.operation("Geo.Near");
    let op_rates = cat.operation("Rate.GetRates");
    let op_check = cat.operation("Reservation.CheckAvailability");
    let op_prof = cat.operation("Profile.GetProfiles");

    let grpc = ThreadingModel::RpcPool {
        io_threads: 2,
        workers: 16,
    };

    let mut frontend_stages = vec![
        StageBehavior::new(
            us(0.0),
            vec![CallBehavior::new(
                Endpoint::new(search, op_nearby),
                lognorm(20.0, 0.3),
            )],
        ),
        StageBehavior::new(
            lognorm(30.0, 0.3),
            vec![CallBehavior::new(
                Endpoint::new(reservation, op_check),
                lognorm(20.0, 0.3),
            )],
        ),
        StageBehavior::new(
            lognorm(30.0, 0.3),
            vec![CallBehavior::new(
                Endpoint::new(profile, op_prof),
                lognorm(20.0, 0.3),
            )],
        ),
    ];

    let mut services = vec![
        ServiceConfig {
            id: search,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(
                op_nearby,
                EndpointBehavior::with_stages(
                    lognorm(120.0, 0.4),
                    vec![
                        StageBehavior::new(
                            us(0.0),
                            vec![CallBehavior::new(
                                Endpoint::new(geo, op_near),
                                lognorm(15.0, 0.3),
                            )
                            .with_skip_prob(opts.search_cache_prob)],
                        ),
                        StageBehavior::new(
                            lognorm(25.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(rate, op_rates),
                                lognorm(15.0, 0.3),
                            )
                            .with_skip_prob(opts.search_cache_prob)],
                        ),
                    ],
                    lognorm(60.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: geo,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(op_near, EndpointBehavior::leaf(lognorm(350.0, 0.5)))],
        },
        ServiceConfig {
            id: rate,
            replicas: 1,
            threading: grpc,
            // Bimodal: memcached hit vs MongoDB miss — needs a GMM.
            endpoints: vec![(
                op_rates,
                EndpointBehavior::leaf(DelayDistribution::Bimodal {
                    mu1: 180.0,
                    sigma1: 40.0,
                    mu2: 900.0,
                    sigma2: 150.0,
                    p2: 0.3,
                }),
            )],
        },
        ServiceConfig {
            id: reservation,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(
                op_check,
                EndpointBehavior::leaf(lognorm(420.0, 0.5))
                    .with_slow_tag_extra_us(opts.slow_extra_us),
            )],
        },
        ServiceConfig {
            id: profile,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(
                op_prof,
                EndpointBehavior::leaf(lognorm(500.0, 0.5))
                    .with_slow_tag_extra_us(opts.slow_extra_us),
            )],
        },
    ];

    if let Some(split) = opts.ab_split_to_b {
        let rec_a = cat.service("recommend-a");
        let rec_b = cat.service("recommend-b");
        let op_rec = cat.operation("Recommend.Get");
        // Version B is slightly slower but "better" (the A/B experiment
        // measures user satisfaction, not latency).
        services.push(ServiceConfig {
            id: rec_a,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(op_rec, EndpointBehavior::leaf(lognorm(300.0, 0.4)))],
        });
        services.push(ServiceConfig {
            id: rec_b,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(op_rec, EndpointBehavior::leaf(lognorm(340.0, 0.4)))],
        });
        frontend_stages.push(StageBehavior::new(
            lognorm(20.0, 0.3),
            vec![
                CallBehavior::new(Endpoint::new(rec_a, op_rec), lognorm(15.0, 0.3))
                    .in_group(0, 1.0 - split),
                CallBehavior::new(Endpoint::new(rec_b, op_rec), lognorm(15.0, 0.3))
                    .in_group(0, split),
            ],
        ));
    }

    services.insert(
        0,
        ServiceConfig {
            id: frontend,
            replicas: 1,
            threading: grpc,
            endpoints: vec![(
                op_hotels,
                EndpointBehavior::with_stages(
                    lognorm(80.0, 0.4),
                    frontend_stages,
                    lognorm(50.0, 0.4),
                ),
            )],
        },
    );

    BenchApp {
        name: "hotel-reservation",
        config: AppConfig {
            catalog: cat,
            services,
            network_delay: lognorm(120.0, 0.3),
            seed: opts.seed,
        },
        roots: vec![Endpoint::new(frontend, op_hotels)],
        capacity_rps: 2_000.0,
    }
}

/// DeathStarBench Media Microservices (14 services) with two flows:
/// `POST /review` (compose) and `GET /page` (read).
pub fn media_microservices(seed: u64) -> BenchApp {
    let mut cat = Catalog::new();
    let nginx = cat.service("nginx");
    let compose = cat.service("compose-review");
    let unique_id = cat.service("unique-id");
    let movie_id = cat.service("movie-id");
    let text = cat.service("text");
    let user = cat.service("user");
    let rating = cat.service("rating");
    let review_store = cat.service("review-storage");
    let user_review = cat.service("user-review");
    let movie_review = cat.service("movie-review");
    let page = cat.service("page");
    let movie_info = cat.service("movie-info");
    let plot = cat.service("plot");
    let cast_info = cat.service("cast-info");

    let op_post = cat.operation("POST /review");
    let op_get = cat.operation("GET /page");
    let op_compose = cat.operation("Compose.Upload");
    let op_uid = cat.operation("UniqueId.Get");
    let op_mid = cat.operation("MovieId.Get");
    let op_text = cat.operation("Text.Process");
    let op_user = cat.operation("User.Get");
    let op_rating = cat.operation("Rating.Record");
    let op_store = cat.operation("ReviewStorage.Store");
    let op_read_reviews = cat.operation("ReviewStorage.Read");
    let op_ur = cat.operation("UserReview.Update");
    let op_mr = cat.operation("MovieReview.Update");
    let op_page = cat.operation("Page.Read");
    let op_minfo = cat.operation("MovieInfo.Get");
    let op_plot = cat.operation("Plot.Get");
    let op_cast = cat.operation("CastInfo.Get");

    let thrift = ThreadingModel::RpcPool {
        io_threads: 2,
        workers: 16,
    };
    let leaf = |median: f64, sigma: f64| EndpointBehavior::leaf(lognorm(median, sigma));

    let services = vec![
        ServiceConfig {
            id: nginx,
            replicas: 1,
            threading: ThreadingModel::AsyncEventLoop,
            endpoints: vec![
                (
                    op_post,
                    EndpointBehavior::with_stages(
                        lognorm(60.0, 0.4),
                        vec![StageBehavior::new(
                            us(0.0),
                            vec![CallBehavior::new(
                                Endpoint::new(compose, op_compose),
                                lognorm(15.0, 0.3),
                            )],
                        )],
                        lognorm(40.0, 0.4),
                    ),
                ),
                (
                    op_get,
                    EndpointBehavior::with_stages(
                        lognorm(60.0, 0.4),
                        vec![StageBehavior::new(
                            us(0.0),
                            vec![CallBehavior::new(
                                Endpoint::new(page, op_page),
                                lognorm(15.0, 0.3),
                            )],
                        )],
                        lognorm(40.0, 0.4),
                    ),
                ),
            ],
        },
        ServiceConfig {
            id: compose,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(
                op_compose,
                EndpointBehavior::with_stages(
                    lognorm(90.0, 0.4),
                    vec![
                        StageBehavior::new(
                            us(0.0),
                            vec![
                                CallBehavior::new(
                                    Endpoint::new(unique_id, op_uid),
                                    lognorm(10.0, 0.3),
                                ),
                                CallBehavior::new(
                                    Endpoint::new(movie_id, op_mid),
                                    lognorm(10.0, 0.3),
                                ),
                                CallBehavior::new(Endpoint::new(text, op_text), lognorm(10.0, 0.3)),
                                CallBehavior::new(Endpoint::new(user, op_user), lognorm(10.0, 0.3)),
                            ],
                        ),
                        StageBehavior::new(
                            lognorm(30.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(rating, op_rating),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                        StageBehavior::new(
                            lognorm(25.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(review_store, op_store),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                        StageBehavior::new(
                            lognorm(20.0, 0.3),
                            vec![
                                CallBehavior::new(
                                    Endpoint::new(user_review, op_ur),
                                    lognorm(10.0, 0.3),
                                ),
                                CallBehavior::new(
                                    Endpoint::new(movie_review, op_mr),
                                    lognorm(10.0, 0.3),
                                ),
                            ],
                        ),
                    ],
                    lognorm(50.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: unique_id,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_uid, leaf(120.0, 0.4))],
        },
        ServiceConfig {
            id: movie_id,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_mid, leaf(260.0, 0.5))],
        },
        ServiceConfig {
            id: text,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_text, leaf(400.0, 0.5))],
        },
        ServiceConfig {
            id: user,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_user, leaf(280.0, 0.5))],
        },
        ServiceConfig {
            id: rating,
            replicas: 1,
            threading: thrift,
            // Redis hit vs miss: bimodal.
            endpoints: vec![(
                op_rating,
                EndpointBehavior::leaf(DelayDistribution::Bimodal {
                    mu1: 150.0,
                    sigma1: 30.0,
                    mu2: 700.0,
                    sigma2: 120.0,
                    p2: 0.25,
                }),
            )],
        },
        ServiceConfig {
            id: review_store,
            replicas: 2,
            threading: thrift,
            endpoints: vec![
                (op_store, leaf(520.0, 0.5)),
                (op_read_reviews, leaf(380.0, 0.5)),
            ],
        },
        ServiceConfig {
            id: user_review,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_ur, leaf(300.0, 0.5))],
        },
        ServiceConfig {
            id: movie_review,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_mr, leaf(310.0, 0.5))],
        },
        ServiceConfig {
            id: page,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(
                op_page,
                EndpointBehavior::with_stages(
                    lognorm(80.0, 0.4),
                    vec![
                        StageBehavior::new(
                            us(0.0),
                            vec![
                                CallBehavior::new(
                                    Endpoint::new(movie_info, op_minfo),
                                    lognorm(10.0, 0.3),
                                ),
                                CallBehavior::new(Endpoint::new(plot, op_plot), lognorm(10.0, 0.3)),
                                CallBehavior::new(
                                    Endpoint::new(cast_info, op_cast),
                                    lognorm(10.0, 0.3),
                                ),
                            ],
                        ),
                        StageBehavior::new(
                            lognorm(30.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(review_store, op_read_reviews),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                    ],
                    lognorm(40.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: movie_info,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_minfo, leaf(330.0, 0.5))],
        },
        ServiceConfig {
            id: plot,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_plot, leaf(290.0, 0.5))],
        },
        ServiceConfig {
            id: cast_info,
            replicas: 1,
            threading: thrift,
            endpoints: vec![(op_cast, leaf(270.0, 0.5))],
        },
    ];

    BenchApp {
        name: "media-microservices",
        config: AppConfig {
            catalog: cat,
            services,
            network_delay: lognorm(120.0, 0.3),
            seed,
        },
        roots: vec![Endpoint::new(nginx, op_post), Endpoint::new(nginx, op_get)],
        capacity_rps: 1_500.0,
    }
}

/// Options for [`nodejs_app_with`].
#[derive(Debug, Clone, Copy)]
pub struct NodejsOptions {
    /// Mean of the gateway's async disk read (µs).
    pub file_read_mean_us: f64,
    /// Standard deviation of the read duration — the paper's Figure 4d
    /// knob ("we control interleaving by setting the standard deviation of
    /// the file size distribution").
    pub file_read_stddev_us: f64,
    pub seed: u64,
}

impl Default for NodejsOptions {
    fn default() -> Self {
        NodejsOptions {
            file_read_mean_us: 2_000.0,
            file_read_stddev_us: 500.0,
            seed: 42,
        }
    }
}

/// Node.js-style demo app (7 services, all asynchronous event loops).
pub fn nodejs_app(seed: u64) -> BenchApp {
    nodejs_app_with(NodejsOptions {
        seed,
        ..NodejsOptions::default()
    })
}

/// Node.js-style demo app with configurable async-I/O interleaving.
pub fn nodejs_app_with(opts: NodejsOptions) -> BenchApp {
    let mut cat = Catalog::new();
    let gateway = cat.service("gateway");
    let auth = cat.service("auth");
    let catalog_svc = cat.service("catalog");
    let inventory = cat.service("inventory");
    let pricing = cat.service("pricing");
    let recommend = cat.service("recommend");
    let analytics = cat.service("analytics");

    let op_shop = cat.operation("GET /shop");
    let op_auth = cat.operation("Auth.Check");
    let op_cat = cat.operation("Catalog.List");
    let op_inv = cat.operation("Inventory.Check");
    let op_price = cat.operation("Pricing.Quote");
    let op_rec = cat.operation("Recommend.Get");
    let op_ana = cat.operation("Analytics.Track");

    let node = ThreadingModel::AsyncEventLoop;
    let leaf = |median: f64, sigma: f64| EndpointBehavior::leaf(lognorm(median, sigma));

    let services = vec![
        ServiceConfig {
            id: gateway,
            replicas: 1,
            threading: node,
            endpoints: vec![(
                op_shop,
                EndpointBehavior::with_stages(
                    lognorm(40.0, 0.4),
                    vec![
                        StageBehavior::new(
                            us(0.0),
                            vec![CallBehavior::new(
                                Endpoint::new(auth, op_auth),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                        StageBehavior::new(
                            lognorm(20.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(catalog_svc, op_cat),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                        StageBehavior::new(
                            lognorm(20.0, 0.3),
                            vec![CallBehavior::new(
                                Endpoint::new(recommend, op_rec),
                                lognorm(10.0, 0.3),
                            )],
                        ),
                    ],
                    lognorm(30.0, 0.4),
                )
                .with_disk_io(DiskIo {
                    duration: DelayDistribution::Normal {
                        mu: opts.file_read_mean_us,
                        sigma: opts.file_read_stddev_us,
                    },
                    non_blocking: true,
                }),
            )],
        },
        ServiceConfig {
            id: auth,
            replicas: 1,
            threading: node,
            endpoints: vec![(op_auth, leaf(200.0, 0.4))],
        },
        ServiceConfig {
            id: catalog_svc,
            replicas: 1,
            threading: node,
            endpoints: vec![(
                op_cat,
                EndpointBehavior::with_stages(
                    lognorm(80.0, 0.4),
                    vec![StageBehavior::new(
                        us(0.0),
                        vec![
                            CallBehavior::new(Endpoint::new(inventory, op_inv), lognorm(10.0, 0.3)),
                            CallBehavior::new(Endpoint::new(pricing, op_price), lognorm(10.0, 0.3)),
                        ],
                    )],
                    lognorm(40.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: inventory,
            replicas: 1,
            threading: node,
            endpoints: vec![(op_inv, leaf(320.0, 0.5))],
        },
        ServiceConfig {
            id: pricing,
            replicas: 1,
            threading: node,
            endpoints: vec![(op_price, leaf(280.0, 0.5))],
        },
        ServiceConfig {
            id: recommend,
            replicas: 1,
            threading: node,
            endpoints: vec![(
                op_rec,
                EndpointBehavior::with_stages(
                    lognorm(100.0, 0.4),
                    vec![StageBehavior::new(
                        us(0.0),
                        vec![CallBehavior::new(
                            Endpoint::new(analytics, op_ana),
                            lognorm(10.0, 0.3),
                        )],
                    )],
                    lognorm(50.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: analytics,
            replicas: 1,
            threading: node,
            endpoints: vec![(op_ana, leaf(240.0, 0.5))],
        },
    ];

    BenchApp {
        name: "nodejs-demo",
        config: AppConfig {
            catalog: cat,
            services,
            network_delay: lognorm(120.0, 0.3),
            seed: opts.seed,
        },
        roots: vec![Endpoint::new(gateway, op_shop)],
        capacity_rps: 2_500.0,
    }
}

/// A minimal two-service chain for tests, docs and the quickstart example.
pub fn two_service_chain(seed: u64) -> BenchApp {
    let mut cat = Catalog::new();
    let front = cat.service("front");
    let back = cat.service("back");
    let op = cat.operation("GET /");
    let op_b = cat.operation("Back.Do");
    let services = vec![
        ServiceConfig {
            id: front,
            replicas: 1,
            threading: ThreadingModel::BlockingPool { threads: 8 },
            endpoints: vec![(
                op,
                EndpointBehavior::with_stages(
                    lognorm(100.0, 0.4),
                    vec![StageBehavior::new(
                        us(0.0),
                        vec![CallBehavior::new(
                            Endpoint::new(back, op_b),
                            lognorm(10.0, 0.3),
                        )],
                    )],
                    lognorm(60.0, 0.4),
                ),
            )],
        },
        ServiceConfig {
            id: back,
            replicas: 1,
            threading: ThreadingModel::BlockingPool { threads: 8 },
            endpoints: vec![(op_b, EndpointBehavior::leaf(lognorm(400.0, 0.5)))],
        },
    ];
    BenchApp {
        name: "two-service-chain",
        config: AppConfig {
            catalog: cat,
            services,
            network_delay: lognorm(100.0, 0.3),
            seed,
        },
        roots: vec![Endpoint::new(front, op)],
        capacity_rps: 10_000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::workload::Workload;
    use tw_model::time::Nanos;

    fn smoke(app: BenchApp, expected_trace_size: usize) {
        assert_eq!(app.config.validate(), Ok(()));
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 100.0, Nanos::from_secs(1)));
        assert!(out.stats.arrivals > 50);
        assert_eq!(out.stats.completed_roots, out.stats.arrivals);
        for &r in out.truth.roots() {
            assert_eq!(
                out.truth.descendants(r).len(),
                expected_trace_size,
                "unexpected trace size"
            );
        }
    }

    #[test]
    fn hotel_smoke() {
        // frontend + search + geo + rate + reservation + profile = 6 spans.
        smoke(hotel_reservation(1), 6);
    }

    #[test]
    fn hotel_service_count() {
        let app = hotel_reservation(1);
        assert_eq!(app.config.services.len(), 6);
        assert_eq!(app.config.catalog.num_services(), 6);
    }

    #[test]
    fn media_smoke_per_flow() {
        let app = media_microservices(2);
        assert_eq!(app.config.services.len(), 14);
        assert_eq!(app.config.validate(), Ok(()));
        let sim = Simulator::new(app.config).unwrap();
        // Compose flow: nginx, compose, uid, mid, text, user, rating,
        // store, user-review, movie-review = 10 spans.
        let out = sim.run(&Workload::poisson(app.roots[0], 100.0, Nanos::from_secs(1)));
        for &r in out.truth.roots() {
            assert_eq!(out.truth.descendants(r).len(), 10);
        }
        // Read flow: nginx, page, movie-info, plot, cast-info, store = 6.
        let out = sim.run(&Workload::poisson(app.roots[1], 100.0, Nanos::from_secs(1)));
        for &r in out.truth.roots() {
            assert_eq!(out.truth.descendants(r).len(), 6);
        }
    }

    #[test]
    fn nodejs_smoke() {
        // gateway, auth, catalog, inventory, pricing, recommend, analytics = 7.
        let app = nodejs_app(3);
        assert_eq!(app.config.services.len(), 7);
        smoke(app, 7);
    }

    #[test]
    fn two_service_smoke() {
        smoke(two_service_chain(4), 2);
    }

    #[test]
    fn hotel_cache_reduces_geo_calls() {
        let app = hotel_reservation_with(HotelOptions {
            search_cache_prob: 0.6,
            seed: 5,
            ..HotelOptions::default()
        });
        let geo = app.config.catalog.lookup_service("geo").unwrap();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 200.0, Nanos::from_secs(1)));
        let geo_calls = out
            .records
            .iter()
            .filter(|r| r.callee.service == geo)
            .count();
        let roots = out.truth.roots().len();
        let frac = geo_calls as f64 / roots as f64;
        assert!((frac - 0.4).abs() < 0.1, "geo call fraction {frac}");
    }

    #[test]
    fn hotel_ab_adds_exactly_one_recommend_call() {
        let app = hotel_reservation_with(HotelOptions {
            ab_split_to_b: Some(0.3),
            seed: 6,
            ..HotelOptions::default()
        });
        assert_eq!(app.config.services.len(), 8);
        let rec_a = app.config.catalog.lookup_service("recommend-a").unwrap();
        let rec_b = app.config.catalog.lookup_service("recommend-b").unwrap();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 200.0, Nanos::from_secs(1)));
        let mut b_count = 0usize;
        for &r in out.truth.roots() {
            let to_rec: Vec<_> = out
                .truth
                .children(r)
                .iter()
                .map(|&k| out.records[k.0 as usize].callee.service)
                .filter(|s| *s == rec_a || *s == rec_b)
                .collect();
            assert_eq!(to_rec.len(), 1);
            if to_rec[0] == rec_b {
                b_count += 1;
            }
        }
        let frac = b_count as f64 / out.truth.roots().len() as f64;
        assert!((frac - 0.3).abs() < 0.08, "B fraction {frac}");
    }

    #[test]
    fn nodejs_disk_stddev_controls_spread() {
        let lat_spread = |stddev: f64| {
            let app = nodejs_app_with(NodejsOptions {
                file_read_mean_us: 3_000.0,
                file_read_stddev_us: stddev,
                seed: 7,
            });
            let gw = app.config.catalog.lookup_service("gateway").unwrap();
            let root = app.roots[0];
            let sim = Simulator::new(app.config).unwrap();
            let out = sim.run(&Workload::poisson(root, 100.0, Nanos::from_secs(1)));
            let durs: Vec<f64> = out
                .records
                .iter()
                .filter(|r| r.callee.service == gw)
                .map(|r| r.send_resp.micros_since(r.recv_req))
                .collect();
            tw_stats::std_dev(&durs)
        };
        assert!(lat_spread(2_000.0) > lat_spread(100.0) + 500.0);
    }
}
