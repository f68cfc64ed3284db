(** Open-loop load generator for the solve service.

    Drives a server with solve requests drawn from a {!Corpus} path
    family at a fixed target rate.  The open-loop discipline is the one
    that measures tail latency honestly: a dedicated pacing domain sends
    request [k] at [t0 + k/rps] {e regardless} of how long earlier
    requests take, requests are pipelined round-robin over [connections]
    persistent connections (one reader domain each), and latency is
    measured from the {e scheduled} send time — so server-side queueing
    shows up in the percentiles instead of being hidden by a slow client
    (the coordinated-omission trap of closed-loop drivers).

    The instance mix is deterministic in [seed]: [distinct] instances are
    drawn from [profile] up front and cycled, so with caching on, the
    steady state exercises the server's cache hit path at a predictable
    rate.  Mid-run the generator opens one extra connection and scrapes
    the [stats] verb ([scrape_stats]), proving live snapshots work while
    solves are in flight; the parsed snapshot rides along in the report.

    {!run_closed} is the deterministic closed-loop variant used by the
    [LG] bench scenario: same mix, but each request is sent only after
    the previous response arrives (via a direct [handle] function), so
    solved/cached/error counts are reproducible for a fixed seed. *)

type config = {
  rps : float;  (** target offered rate, requests/second *)
  duration : float;  (** run length in seconds; [rps * duration] requests *)
  connections : int;  (** persistent pipelined connections *)
  profile : string;  (** a {!Corpus.path_families} member *)
  distinct : int;  (** distinct instances cycled through the run *)
  algorithm : string;
  seed : int;
  timeout_ms : int option;  (** per-request deadline forwarded on the wire *)
  cache : bool;  (** [cache=0] on the wire when false *)
  scrape_stats : bool;  (** scrape the [stats] verb mid-run *)
}

val default_config : config
(** 50 rps for 2 s on 4 connections, [uniform-mixed], 32 distinct
    instances, [combine], seed 42, no timeout, cache and scrape on. *)

type report = {
  r_config : config;
  offered_rps : float;  (** = [config.rps] *)
  achieved_rps : float;  (** completions / elapsed *)
  elapsed : float;  (** first scheduled send -> last completion, seconds *)
  sent : int;
  completed : int;  (** responses of any status *)
  solved : int;  (** fresh solves *)
  cached : int;  (** cache-served solves *)
  timeouts : int;
  errors : int;  (** error responses *)
  lost : int;  (** sent but never answered *)
  latency : Obs.Metrics.histogram_summary;
      (** scheduled send -> completion, seconds *)
  send_lag : Obs.Metrics.histogram_summary;
      (** scheduled -> actual send: pacer health; large values mean the
          offered rate was not actually offered *)
  protocol_errors : string list;
  server_stats : Obs.Json.t option;  (** mid-run [stats] snapshot *)
}

val run :
  connect:(unit -> (Unix.file_descr, string) result) ->
  config ->
  (report, string) result
(** Run the open-loop generator against a server reachable through
    [connect] (e.g. [fun () -> Client.connect_unix path]).  [Error] only
    for a config/connection-setup problem; per-request failures are
    reported in the counters and [protocol_errors]. *)

val run_closed :
  handle:(Sap_server.Protocol.request -> Sap_server.Protocol.response) ->
  config ->
  (report, string) result
(** Deterministic closed-loop variant: requests go one at a time through
    [handle] (e.g. [Server.handle srv]); [rps] only sizes the request
    count.  No pacing or scraping; counters are reproducible. *)

val cache_hit_rate : report -> float option
(** [cached / (solved + cached)]; [None] when nothing was served. *)

val report_json : report -> Obs.Json.t
(** The sap-loadgen v1 report (schema in docs/FORMAT.md): config echo,
    offered/achieved rps, request outcome counts, cache hit rate,
    latency and send-lag quantile histograms, protocol errors, and the
    scraped server stats (or null). *)

(** {2 Saturation sweep}

    Step the offered rate from [lo] to [hi] by [step], running the
    open-loop generator at each point, and stop early once achieved
    throughput falls below [threshold * offered] — the server is past its
    knee; offering more only inflates queues.  The knee is the highest
    offered rate that still kept up. *)

type sweep = {
  sw_config : config;  (** base config; [rps] is overridden per step *)
  sw_lo : float;
  sw_hi : float;
  sw_step : float;
  sw_threshold : float;
  sw_points : (float * report) list;  (** (offered rps, report), ascending *)
  sw_knee : float option;  (** highest keeping-up offered rate *)
}

val knee : threshold:float -> (float * float) list -> float option
(** Pure knee rule over [(offered, achieved)] pairs in sweep order: the
    last offered rate with [achieved >= threshold * offered]; [None] if
    no point kept up. *)

val sweep :
  connect:(unit -> (Unix.file_descr, string) result) ->
  ?threshold:float ->
  lo:float ->
  hi:float ->
  step:float ->
  config ->
  (sweep, string) result
(** Run the sweep ([threshold] defaults to [0.9]; [cfg.rps] is ignored;
    mid-run stats scraping is disabled for every point).  [Error] on an
    invalid range or a setup failure at any point. *)

val sweep_json : sweep -> Obs.Json.t
(** The [sap-loadgen-sweep v1] report (schema in docs/FORMAT.md):
    range, threshold, per-point offered/achieved/counts/latency, and
    [knee_rps] (null when even [lo] was past the knee). *)

(** {2 Session replay}

    Drive one online session: open it on a base instance, replay a churn
    trace as add/remove deltas (a resize is remove + add under the same
    id), resolve every [resolve_every] events, close.  Requests go one at
    a time in order over one connection.  Every returned solution is
    re-checked client-side; the server already checker-verifies, so a
    rejection here means wire corruption, not a solver bug. *)

type session_report = {
  se_cold : bool;  (** resolves asked for a cold repack *)
  se_events : int;  (** churn events replayed *)
  se_deltas : int;  (** add/remove requests sent; a resize sends both *)
  se_summaries : Sap_server.Protocol.session_summary list;
      (** the open's summary, then one per resolve, in order *)
  se_failures : string list;
      (** printable failures in order (error responses, unexpected
          replies, checker rejections); empty on a clean replay *)
}

val session :
  connect:(unit -> (Unix.file_descr, string) result) ->
  seed:int ->
  cold:bool ->
  resolve_every:int ->
  Core.Path.t ->
  Core.Task.t list ->
  Corpus.churn_event list ->
  (session_report, string) result
(** [session ~connect ~seed ~cold ~resolve_every path base events]
    replays [events] on a session opened over [path] and [base]; an
    empty [events] opens, resolves once and closes.  A trailing partial
    batch of fewer than [resolve_every] events is resolved too.  [Error]
    only when [connect] fails; per-request failures land in
    [se_failures]. *)

val session_json : session_report -> Obs.Json.t
(** The [sap-session-report v1] report (schema in docs/FORMAT.md): event,
    delta and resolve totals, summed solve ms and band counts, the last
    summary's scheduled count and weight, and the failure count. *)

val pp_session : Format.formatter -> session_report -> unit
(** One line per summary ([open], then [resolve]) and a totals line. *)
