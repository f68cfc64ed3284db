(** A process-wide registry of named counters, gauges and histograms.

    Designed for the solving stack's hot paths:
    - every update first reads one [Atomic] enabled flag and returns
      immediately when collection is off (the default), so instrumented
      code costs nothing measurable in benchmarks;
    - all cells are {!Atomic} values updated with CAS loops (bucket
      increments are single [fetch_and_add]s), so updates from the domains
      spawned by [Util.Parallel.map] are lost-update-free;
    - handles are meant to be created once at module initialisation
      ([let c = Metrics.counter "simplex.iterations"]) — creation takes a
      registry lock, updates never do.

    Names are dotted lowercase paths ([subsystem.quantity]); registering
    the same name twice returns the same cell. *)

type counter
type gauge
type histogram

val enable : unit -> unit
(** Turn collection on (process-wide, all domains). *)

val disable : unit -> unit

val enabled : unit -> bool
(** True when collection is on.  Instrumentation wrapping non-trivial
    computation (e.g. counting DP states) should guard on this instead of
    paying for the computation unconditionally. *)

val reset : unit -> unit
(** Zero every registered cell; registrations are kept. *)

val counter : string -> counter
(** Register (or look up) a monotonically increasing integer. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val gauge : string -> gauge
(** Register (or look up) a last-write-wins float. *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

val histogram : string -> histogram
(** Register (or look up) a quantile histogram: exact count / sum / min /
    max plus fixed exponential ("log-bucketed") buckets for percentile
    estimation.  Used for durations (seconds) and per-event ratios. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] observes the duration of [f ()] in seconds, on the
    monotonic clock ({!Clock.monotonic_seconds}) like spans, when
    collection is on; it is exactly [f ()] otherwise. *)

(** {1 Bucket grid}

    The grid is global and static so any two summaries merge by element-wise
    bucket addition: bucket [0] is underflow ([v <= 1e-9]), buckets
    [1..177] grow by a factor [2^(1/4)] (≤ 9.1% relative width) covering
    1 ns to ~6.4 h, and the last bucket is overflow. *)

val bucket_count : int
(** Total number of buckets, including underflow and overflow. *)

val bucket_index : float -> int
(** The bucket a value lands in; total over [0 .. bucket_count - 1]. *)

val bucket_upper : int -> float
(** Inclusive upper bound of a bucket ([infinity] for the overflow
    bucket, the underflow threshold for bucket [0]). *)

type histogram_summary = {
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
  buckets : int array;  (** length [bucket_count]; sums to [count] *)
}

val empty_summary : histogram_summary

val summary_observe : histogram_summary -> float -> histogram_summary
(** Pure single-value update (copies the bucket array — meant for
    accumulation off the hot path). *)

val summary_of_values : float array -> histogram_summary
(** Pure construction from raw samples; never touches the registry or the
    enabled flag.  [summary_of_values [||] = empty_summary]. *)

val merge : histogram_summary -> histogram_summary -> histogram_summary
(** Element-wise merge (counts and buckets add, min/max combine).
    Associative and commutative, with [empty_summary] as identity — safe
    to combine per-domain summaries in any order. *)

val quantile : histogram_summary -> float -> float
(** [quantile s q] estimates the [q]-quantile ([0..1], clamped) from the
    buckets: the geometric midpoint of the bucket holding the rank-
    [ceil q*count] sample, clamped to the exact [min, max] (the open-ended
    underflow/overflow buckets report the exact extreme).  The estimate
    is within one bucket's relative width ([2^(1/4)]) of the exact
    empirical quantile for positive samples above the underflow threshold.
    [nan] when empty. *)

val summary_json : histogram_summary -> Json.t
(** [{count, sum, mean, min, max, p50, p90, p95, p99, buckets}] where
    [buckets] is a sparse object mapping bucket index (as a string) to its
    non-zero count, and every statistic is [null] when empty. *)

val summary_of_json : Json.t -> histogram_summary option
(** Parse a {!summary_json}-shaped object back into a summary ([None] if
    there is no integer [count] field).  Quantile fields are recomputed
    from the buckets, not read back. *)

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}
(** All lists sorted by name. *)

val snapshot : unit -> snapshot

val snapshot_json : unit -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name:
    summary_json, ..}}] — the [metrics] section of the stats report. *)
