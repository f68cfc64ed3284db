(** The long-running solve service: request lifecycle over {!Pool} and
    {!Cache}.

    A request flows: admission check (draining servers refuse) → cache
    lookup (keyed by {!Fingerprint.make}'s canonical bytes, compared in
    full; a hit is rebuilt from the request's own tasks) → pool
    submission (blocking past the queue's high-water mark — that block
    {e is} the backpressure) → solve + {!Core.Checker} verification in a
    worker domain → cache insert of the packed placements.  Every request gets a monotonically-assigned server-side id
    and receive/dequeue/solve/respond timestamps, recorded into quantile
    latency histograms — [server.latency.total] (every request, plus
    [.hit]/[.miss] splits for solves), [server.latency.queue]
    (receive → worker dequeue) and [server.latency.solve] (solver wall
    time, also split per algorithm as
    [server.latency_seconds.<algorithm>]) — alongside
    [server.queue_depth], [server.cache.{hits,misses,evictions}] and
    per-request [server.request] spans when tracing is on.  Request
    totals (requests/solved/errors/timeouts) are tracked once, as
    per-server atomics surfaced by {!stats_json}.

    When [config.log] is set, every response additionally emits one
    single-line [key=value] record (fields: [ts] wall-clock epoch, [req]
    server request id, [id] client id, [verb], [alg], [seed], [cache]
    hit/miss/off, [status], [scheduled], [weight], [queue_ms],
    [solve_ms], [total_ms]; absent fields are omitted).  The sink is
    called from whichever domain forces the response — it must be
    thread-safe.

    Responses are never fabricated from unchecked solver output: a
    solution that fails the checker turns into an [infeasible] error, a
    raising solver into [internal], a missed deadline into [timeout].

    Transports drive the server through {!submit}, which returns a
    {!pending} thunk instead of blocking, so a connection loop
    ({!Transport.serve_frames}) can keep reading pipelined requests
    while earlier solves are still in flight: it hands each thunk, in
    arrival order, to the connection's response {!Pump}, whose writer
    forces it and writes the response as soon as it is ready. *)

type config = {
  workers : int option;  (** [None]: {!Util.Parallel.default_jobs} *)
  queue_capacity : int option;  (** [None]: [4 * workers] *)
  cache_capacity : int;  (** LRU entries; [<= 0] disables caching *)
  default_timeout_ms : int option;
      (** applied to solve requests that carry no [timeout-ms] *)
  log : (string -> unit) option;
      (** structured request-log sink, one pre-formatted [key=value] line
          per response (no trailing newline); must be thread-safe *)
}

val default_config : config
(** Default workers and queue, 1024 cache entries, no default timeout,
    no request log. *)

type t

val create : ?config:config -> unit -> t

type pending = unit -> Protocol.response
(** Forcing blocks (up to the request's deadline) and produces the
    response; force each pending once. *)

val submit : t -> Protocol.request -> pending
(** Admit one request.  May block on the pool's bounded queue (the
    backpressure contract); never raises on bad input — malformed or
    refused work comes back as an error response.  A [Shutdown] request
    flips the server into draining mode immediately; forcing its pending
    completes the drain and acknowledges. *)

val handle : t -> Protocol.request -> Protocol.response
(** [submit] and force: the synchronous convenience used by tests and
    single-request callers. *)

val stats_json : t -> Obs.Json.t
(** The [stats] response payload (sap-server-stats v2): request/cache/pool
    totals plus the current {!Obs.Metrics} snapshot (sap-stats v3
    [metrics] shape with quantile histograms; empty unless metric
    collection is enabled). *)

val draining : t -> bool
(** True once a [Shutdown] request was admitted or {!drain} called. *)

val drain : t -> unit
(** Graceful shutdown: refuse new work, finish every accepted request,
    stop the pool.  Idempotent. *)
