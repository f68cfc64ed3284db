(** The benchmark's pure arithmetic: percentiles, the serve-mix rung
    rules, span self time, server histogram deltas and the result line.
    Kept apart from the runner so unit tests reach it without a server. *)

(** {1 Percentiles} *)

val supported_quantile : int -> float option
(** The highest quantile that still has ten samples beyond it among [n]
    samples ([1 - 10/n]); [None] when [n <= 10]. *)

type latency = { n : int; p50_ms : float; p99_ms : float }

val latency : float array -> latency
(** Nearest-rank median and 99th percentile of durations in seconds,
    reported in milliseconds.  Raises [Invalid_argument] when empty. *)

val pp_latency : Format.formatter -> latency -> unit
(** [n=.. p99 supported|unsupported (highest pNN)]: the sample count and
    whether p99 has ten samples beyond it. *)

val median : float array -> float
(** Nearest-rank median.  Raises [Invalid_argument] when empty. *)

val binned_rate : bin:float -> t0:float -> t1:float -> float array -> float
(** Event instants counted in consecutive [bin]-second bins of
    [\[t0, t1)] (a partial last bin is dropped): the median count per
    second.  [0] when not even one bin fits. *)

(** {1 Serve-mix rungs} *)

val outstanding : sched:float array -> done_:float array -> float -> int
(** Requests scheduled at or before [t] and not answered by [t]; a [nan]
    completion counts as never answered. *)

val backlog_growing : slack:float -> int array -> bool
(** [outstanding] sampled at evenly spaced instants across a rung: the
    backlog grows when the mean of the last quarter of the samples exceeds
    the mean of the first quarter by more than [slack] requests. *)

type rung = {
  offered_rps : float;
  achieved_rps : float;
  rung_p99_ms : float;
  growing : bool;
}

val rung_ok : slo_ms:float -> rung -> bool
(** p99 within the SLO, achieved at least 0.95 of offered, no growing
    backlog. *)

val max_rps_at_slo : slo_ms:float -> rung list -> float
(** The highest offered rate among the rungs that are {!rung_ok}; [0]
    when none is. *)

(** {1 Spans} *)

val self_time : is_layer:(string -> bool) -> Obs.Trace.span -> float
(** The span's duration minus the part of its interval covered by its
    nearest layer descendants.  Spans that are not layers (the library's
    own) are looked through, so their layer children still count. *)

type layer_time = { busy : float; self : float; calls : int }

val layer_times :
  is_layer:(string -> bool) -> Obs.Trace.span list -> (string * layer_time) list
(** Busy (summed duration) and self time per layer name over every layer
    span in the trees, sorted by name. *)

(** {1 Server histograms} *)

val hist_delta :
  Obs.Metrics.histogram_summary ->
  Obs.Metrics.histogram_summary ->
  Obs.Metrics.histogram_summary
(** [hist_delta before after]: the observations recorded between two
    scrapes of a cumulative histogram, bucket by bucket.  [min] and [max]
    become the edges of the outermost non-empty buckets. *)

(** {1 Result line} *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

val result_json : result -> Obs.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value",
    "unit"}}}]; a non-finite value raises [Invalid_argument]. *)

val result_of_json : Obs.Json.t -> (result, string) Stdlib.result
