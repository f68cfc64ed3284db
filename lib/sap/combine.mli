(** The headline algorithm: Theorem 4's [(9+eps)]-approximation for SAP.

    With [k = 2] and [beta = 1/4] the task set splits into
    - small:  [d_j <= delta * b(j)]        → Strip-Pack, [(4+eps)]-approx;
    - medium: [delta < d_j/b(j) <= 1/2]    → AlmostUniform, [(2+eps)]-approx;
    - large:  [d_j > b(j)/2]               → rectangle MWIS, [3]-approx;
    and the heaviest of the three solutions is a [(9+eps)]-approximation by
    Lemma 3 (ratios add:  [(4+eps) + (2+eps) + 3 = 9 + eps']).

    The theory's [delta] is microscopic ([~eps/100]); like any
    implementation must, we expose it as a parameter (default 1/4) — the
    guarantee degrades gracefully and the measured ratios stay far below
    the bound either way. *)

type config = {
  eps : float;            (** drives [ell = ceil(q/eps)] for AlmostUniform *)
  delta : float;          (** small / medium threshold *)
  beta : float;           (** elevation fraction; [q = ceil(log2 1/beta)] *)
  rounding : Small.rounding;  (** engine for the small-task strips *)
  seed : int;             (** PRNG seed for the LP rounding trials *)
  max_states : int option;    (** Elevator DP state cap *)
  parallel : bool;        (** run the three specialists in parallel domains *)
}

val default_config : config
(** [eps = 0.5], [delta = 0.25], [beta = 0.25], LP rounding with 16 trials,
    seed 42, default state cap, sequential.  [parallel = true] gives
    identical results (the specialists share nothing) on up to 3 domains. *)

val q_of_beta : float -> int
(** [ceil(log2 1/beta)], at least 1 — the elevation exponent the
    combination uses.  Exposed so front-ends (the CLI's standalone
    [medium] algorithm) derive [ell]/[q] from the same defaults instead of
    hardcoding them.  Requires [beta] in (0, 1/2). *)

type part = Small_part | Medium_part | Large_part

val split : config -> Core.Path.t -> Core.Task.t list -> Core.Classify.split
(** The Theorem 4 classification: small [d_j <= delta * b(j)], large
    [d_j > (1 - 2 beta) * b(j)], medium in between — the subsets
    {!solve_report} hands its three specialists (after dropping tasks
    that fit nowhere). *)

type report = {
  solution : Core.Solution.sap;
  chosen : part;
  small_solution : Core.Solution.sap;
  medium_solution : Core.Solution.sap;
  large_solution : Core.Solution.sap;
  medium_exact : bool;
}

val solve_report : ?config:config -> Core.Path.t -> Core.Task.t list -> report

val solve : ?config:config -> Core.Path.t -> Core.Task.t list -> Core.Solution.sap
(** The best of the three part solutions; always checker-feasible. *)

val pp_part : Format.formatter -> part -> unit

type bound_kind = Lp_bound | Exact_bound

val bound_kind_name : bound_kind -> string
(** ["lp"] / ["exact"] — the report vocabulary (docs/FORMAT.md). *)

type audit = {
  upper_bound : float;
      (** the UFPP LP relaxation bound, or a true optimum when the caller
          has one (the ratio lab's branch and bound) *)
  bound_kind : bound_kind;
      (** what [upper_bound] is: [Lp_bound] over-estimates OPT, so the
          ratio is conservative; [Exact_bound] makes it a true OPT/ALG *)
  achieved_weight : float;
  total_weight : float;  (** weight of the whole task set *)
  empirical_ratio : float option;
      (** [upper_bound / achieved_weight] ([>= 1]; the Thm 4 guarantee
          caps it at [9+eps]); [None] when nothing was scheduled *)
  checker_ok : bool;
  checker_error : string option;
  scheduled : int;
  tasks : int;
  chosen_part : part;
  weight_small : float;
  weight_medium : float;
  weight_large : float;
  medium_exact : bool;
}
(** The per-solve ratio certificate: how far the combination actually
    landed from the LP upper bound, with the per-part contributions and
    an independent feasibility verdict.  Continuously recording these is
    what makes the [(9+eps)] guarantee observable across PRs. *)

val audit :
  ?lp_upper_bound:float ->
  ?exact_optimum:float ->
  Core.Path.t ->
  Core.Task.t list ->
  report ->
  audit
(** Audit a {!solve_report} result.  Computes the UFPP LP upper bound
    unless the caller already has it ([sap_cli] prints it anyway), runs
    the checker, and records [combine.lp_upper_bound],
    [combine.empirical_ratio] and [combine.audit.checker_failures]
    metrics.  [exact_optimum] (when the caller certified OPT, e.g. via
    the lab's branch and bound) takes precedence over [lp_upper_bound]
    and tags the record [Exact_bound].  Call it {e after} snapshotting
    solve metrics if the LP recomputation must not perturb [simplex.*]
    counters. *)

val audit_json : audit -> Obs.Json.t
(** The [audit] record of the stats report (docs/FORMAT.md). *)

val pp_audit : Format.formatter -> audit -> unit
