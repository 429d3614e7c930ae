// Package spotlight is a from-scratch Go reproduction of "SpotLight: An
// Information Service for the Cloud" (Ouyang; UMass Amherst / ICDCS 2016).
//
// SpotLight actively probes an IaaS cloud with requests for on-demand and
// spot servers, uses spot-market price dynamics to decide when and where
// to probe, and exposes the gathered availability data through a query
// API that applications use to pick servers whose failures are not
// correlated.
//
// The repository layout:
//
//   - internal/core        — the SpotLight service (the paper's contribution)
//   - internal/cloud       — the EC2 simulator substrate (Fig 2.2 model)
//   - internal/demand      — seeded demand processes driving the simulator
//   - internal/market      — the 9-region / 26-zone / 53-type catalog
//   - internal/store       — SpotLight's database, sharded per spot market:
//     each market's history lives behind its own lock with incremental
//     indexes, so ingestion scales across markets and
//     availability queries are shard-local lookups instead of log scans.
//     Every append also publishes typed events to a change feed
//     (store.Feed): one ring, scope-filtered subscriptions that are
//     cursors into it, and ring-based resume (docs/streaming.md).
//     Optionally durable (store.Open): one CRC-framed write-ahead log
//     for the whole store, framed in the same batch round as each
//     append, periodic snapshot + compaction, and crash recovery that
//     replays snapshot-then-WAL (docs/persistence.md)
//   - internal/query       — query engine + the versioned HTTP API (its
//     repeats served from a table of rendered answers): GET /v1/*, the
//     POST /v2/query batch endpoint, POST /v2/advise, the GET /v2/watch
//     Server-Sent Events stream with Last-Event-ID resume, and
//     GET /v2/health, all over the typed DTOs of pkg/api (full
//     reference in docs/api.md)
//   - internal/advisor     — the decision layer: ranks spot markets
//     against workload constraints (capacity floors, price and
//     interruption ceilings, region/product sets) by a composite score
//     over the store's rollups, memoized per scope generation; served
//     as POST /v2/advise (docs/advisor.md)
//   - internal/fleet       — simulated fleet manager consuming the
//     advisor and the store change feed: event-steered migration off
//     revoked/spiking markets, on-demand fallback and repatriation, and
//     pluggable bidding policies — the paper's threshold policy and a
//     PI feedback controller (arXiv 1708.01391) run head-to-head in
//     internal/experiment (docs/advisor.md)
//   - pkg/api              — the public wire contract: request/response
//     DTOs per query kind, the batch envelope, the live-stream event
//     DTOs, and the machine-readable error envelope
//   - pkg/client           — the Go client SDK over both API surfaces,
//     including Watch (typed live events, auto-reconnect with resume)
//   - internal/analysis    — one function per paper table/figure
//   - internal/experiment  — study harness and the Chapter 6 case
//     studies: SpotCheck's VM and SpotOn's jobs replayed over a study's
//     price traces (Figs 6.1, 6.2), and Eq 6.1
//   - internal/daemon      — assembles one runnable node (leader or
//     follower): store, query API, HTTP server, and either the simulated
//     study or a replication subscription
//   - internal/replica     — read replication: rebuild a leader's store
//     by tailing its /v2/watch change feed, adopting the leader's clock
//     and ETag salt so a caught-up follower answers byte-identically
//     (docs/replication.md)
//   - internal/gateway     — the front door: one endpoint over N replica
//     nodes, forwarding each request whole to one node by consistent
//     hash, with every-peer failover and circuit breakers
//   - cmd/spotlight-study  — regenerate every table and figure
//   - cmd/spotlight-analyze— regenerate Chapter 5 figures from a dumped
//     store snapshot (collect once, analyze many)
//   - cmd/spotlightd       — run the service as an HTTP daemon (-smoke
//     self-checks a v2 batch, a /v2/advise call, and a live watch
//     stream through pkg/client and exits; -data-dir makes the study
//     durable across restarts; -follow runs the daemon as a read
//     replica of another node)
//   - cmd/spotlight-gateway— front a replica fleet with one endpoint
//   - cmd/spotload         — the failure-domain drill: boots a leader,
//     two followers, and a gateway in-process, then kills streams and
//     the leader, restarts a follower, and promotes one under load
//   - cmd/ec2sim           — inspect the simulator standalone
//   - examples/            — runnable walkthroughs; each serves a study
//     over HTTP and consumes it through pkg/client
//
// README.md is the front door (quickstart, binary and example index);
// docs/architecture.md walks the whole pipeline from probe to replicated
// query answer. The root-level benchmarks (bench_test.go) regenerate
// each table and figure of the paper's evaluation; the
// BenchmarkStoreAppendParallel and BenchmarkQuery*Parallel families
// measure the sharded store's concurrent ingestion and query serving.
//
// Development: `make ci` runs the same build / gofmt / vet / race-test /
// http-smoke / chaos-smoke / example-smoke / fuzz-smoke /
// benchmark-smoke / bench-gate pipeline as .github/workflows/ci.yml.
package spotlight
