(** The empirical approximation-ratio pipeline.

    For every corpus instance, runs each applicable algorithm — on path
    instances every {!Sap.Solvers} entry with a proven bound (small,
    medium, large, combine) on its classified task subset; the Theorem-5
    algorithm on rings — and measures [OPT / ALG] against the
    {!Exact.Exact_bb} optimum.

    When the branch and bound exhausts its node budget the row degrades
    gracefully: [opt] becomes the certified upper bound (root LP for
    paths, total weight for rings), tagged [bound_kind = Lp_opt], and the
    row is excluded from the violation gate — a ratio against an
    over-estimate of OPT proves nothing.  Rows whose subset also fits the
    brute-force oracles carry an independent [brute_agrees] cross-check.

    Bounds are instantiated at {!Sap.Combine.default_config}
    ([eps = 0.5], [k = 2]): [4 + eps], [2 + eps], [3], their sum for the
    combination (Lemma 3), and [1 + alpha + eps'] on rings (Lemma 18). *)

type bound_kind = Exact_opt | Lp_opt

val bound_kind_to_string : bound_kind -> string
(** ["exact"] / ["lp"] — the report and audit vocabulary. *)

type measurement = {
  file : string;
  family : string;
  alg : string;  (** small | medium | large | combine | ring *)
  subset_size : int;  (** tasks handed to the algorithm *)
  alg_weight : float;
  opt : float;  (** exact optimum, or certified upper bound *)
  bound_kind : bound_kind;
  ratio : float option;  (** [opt / alg_weight]; [None] if nothing scheduled *)
  bound : float;  (** the proven ratio bound for [alg] *)
  within_bound : bool;  (** always true for [Lp_opt] rows (ungated) *)
  brute_agrees : bool option;  (** brute-oracle cross-check, when it fits *)
  bb_nodes : int;
}

type summary_row = {
  s_alg : string;
  count : int;
  max_ratio : float option;  (** over exact-oracle rows only *)
  mean_ratio : float option;  (** over exact-oracle rows only *)
  exact_opts : int;
  lp_fallbacks : int;
  s_violations : int;
  worst_file : string option;
      (** the per-class worst instance among [Exact_opt] rows; an
          LP-bounded row is never ranked worst (its ratio is measured
          against an over-estimate of OPT) *)
}

type family_row = {
  f_family : string;
  f_alg : string;
  f_count : int;
  f_max_ratio : float option;  (** over exact-oracle rows only *)
  f_mean_ratio : float option;  (** over exact-oracle rows only *)
  f_exact_opts : int;
  f_violations : int;
}
(** One (corpus family, algorithm) cell of the breakdown — the aggregate
    summary hides which generator family produced the worst ratios, so
    the report also carries the full cross-tabulation. *)

type report = {
  corpus_dir : string;
  corpus_seed : int;
  measurements : measurement list;
  summaries : summary_row list;
  families : family_row list;
      (** per-(family, alg) breakdown, in first-seen corpus order *)
  violations : int;  (** exact-OPT rows exceeding their proven bound *)
  disagreements : int;  (** brute cross-checks that failed *)
}

val bounds : (string * float) list
(** Algorithm name to instantiated proven bound: the bounded
    {!Sap.Solvers} entries in registry order, then [ring]. *)

val path_solve :
  Sap.Solvers.t -> Core.Path.t -> Core.Task.t list -> Core.Solution.sap
(** A registry entry at the lab's pinned configuration (the default
    config's seed, sequential) exactly as the pipeline measures it —
    {!Lab.Hunt} scores its candidates through this same runner, so a
    hunted ratio is the ratio the corpus gate will reproduce. *)

val ring_solve : Core.Ring.t -> Core.Ring.solution
(** The Theorem 5 ring algorithm at the lab's pinned configuration. *)

val run : ?max_nodes:int -> ?jobs:int -> Corpus.t -> report
(** Solve every entry.  [max_nodes] and [jobs] are forwarded to
    {!Exact.Exact_bb.solve}.  Raises [Invalid_argument] on an unreadable corpus
    entry (a corrupt corpus is a configuration error, not a data point). *)

val report_json : report -> Obs.Json.t
(** The [sap-ratio v1] document (docs/LAB.md). *)

val pp_summary : Format.formatter -> report -> unit
(** The per-algorithm table: count, max/mean ratio, bound, oracle kinds,
    worst instance. *)
