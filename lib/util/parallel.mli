(** Multicore fan-out over independent work items (OCaml 5 domains).

    The experiment harness measures dozens of independent instances per
    table row; each measurement is pure (own PRNG, own data), so they
    parallelise trivially.  [map] spawns up to [jobs] domains working on
    strided slices and preserves input order.

    Not a scheduler: items should be coarse (milliseconds+), and [f] must
    not share mutable state across items. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map.  [jobs] defaults to
    {!default_jobs}; [jobs = 1] degenerates to [List.map].  Exceptions in
    workers are re-raised in the caller (first one wins).

    When tracing is on (and more than one domain actually spawns), each
    worker domain runs inside a [parallel.worker] root span tagged with
    its worker index, so per-domain activity renders as separate lanes in
    the Chrome-trace export. *)
