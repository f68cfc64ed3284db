(** The machine-readable stats report ([sap-stats v3]) shared by
    [sap_cli solve --stats-json] and the bench harness, so benchmark
    trajectories can track internal counters with the same schema the CLI
    emits — and so [sap_cli bench-diff] can compare any two of them.

    Schema (documented in docs/FORMAT.md):
    {v
    { "schema":  "sap-stats v3",
      "clock":   { "wall_epoch_seconds": .., "monotonic_seconds": .. },
      ...caller-supplied extra fields...,
      "metrics": { "counters": {..}, "gauges": {..}, "histograms": {..} },
      "spans":   [ {name, start, duration_seconds, domain, gc, attrs,
                    children}, .. ] }
    v}

    Span [start] values are monotonic-clock seconds; the [clock] anchor
    (one {!Clock.anchor} pair sampled at build time) maps them back to
    wall time. *)

val schema_version : string
(** ["sap-stats v3"]. *)

val enable_all : unit -> unit
(** Turn on both {!Metrics} and {!Trace}. *)

val disable_all : unit -> unit

val reset_all : unit -> unit
(** Zero metrics and drop completed spans — call between measured phases
    when one process emits several reports. *)

val build : ?extra:(string * Json.t) list -> ?include_spans:bool -> unit -> Json.t
(** Snapshot metrics and spans into a report object.  [extra] fields are
    placed after [schema] and [clock], before [metrics] (e.g. instance
    stats, result weights).  [include_spans:false] omits the [spans] key
    entirely — the compact form committed as the bench baseline (raw span
    trees dwarf the metric summaries; {!Diff} ignores the [spans] prefix
    on both sides, so compact and full reports diff cleanly). *)

val write_file : string -> Json.t -> unit
(** Pretty-printed, trailing newline.  Atomic: the report is written to a
    temp file in the destination directory and renamed into place, so a
    crash mid-write cannot leave a truncated JSON behind.  The file gets
    the mode [open_out] gives a new file (0o666 less the umask).  Every
    JSON report the CLI writes goes through here, the Chrome-trace
    sidecar included. *)
