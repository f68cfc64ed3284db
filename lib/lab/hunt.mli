(** The adversarial instance hunt: evolutionary search for instances that
    maximize [OPT / ALG] per algorithm.

    The measured worst ratios of the corpus sit far below the proven
    constants (combine 2.8 vs 10, ring 1.4 vs 11.1).  The hunt closes
    that gap from below: a (mu + lambda)-style evolutionary loop over
    instances whose mutation operators ({!Gen.Perturb}) are aimed at the
    paper's structural seams — demands nudged across the [delta * b(j)]
    and [(1 - 2 beta) * b(j)] classification thresholds, bottleneck edges
    tightened, tasks duplicated (feeding the oracle's symmetry cut) or
    split, weights jittered, spans shifted.

    Candidates are scored through the exact same per-algorithm runners
    the ratio pipeline uses ({!Ratio.path_solve} / {!Ratio.ring_solve}),
    so a hunted ratio is precisely what `lab run` will reproduce once the
    instance is frozen into the corpus.  The oracle is {!Exact.Exact_bb}
    under a per-candidate node budget; when the budget exhausts, the score
    degrades to the certified lower bound [incumbent / ALG] (sound — the
    incumbent weight never exceeds OPT) and the candidate is barred from
    the hall of fame, which admits only exact-certified ratios.

    Determinism: one integer seed drives everything.  Mutation streams
    are {!Util.Prng.jump}/[split]-derived per (generation, slot) in the
    main thread; candidate evaluation is pure and fans out over [jobs]
    domains ({!Util.Parallel.map}) with order-preserving collection, so a
    parallel run returns bit-identical results to a sequential one. *)

type config = {
  alg : string;  (** small | medium | large | combine | ring *)
  seed : int;
  generations : int;
  population : int;  (** candidates evaluated per generation *)
  max_nodes : int;  (** {!Exact.Exact_bb} node budget per candidate *)
  hof_size : int;  (** hall-of-fame capacity *)
  max_tasks : int;  (** growth cap for duplicate/split mutations *)
}

val default_config : config
(** [alg = "combine"], seed 42, 8 generations of 16, 200k-node budget,
    hall of fame of 5, at most 12 tasks per candidate. *)

val algs : string list
(** The huntable algorithm names (the {!Ratio} vocabulary). *)

type scored = {
  instance : Corpus.instance;
  ratio : float;
      (** certified: [OPT / ALG] when [exact], else the sound lower bound
          [incumbent / ALG] *)
  exact : bool;  (** the branch and bound closed within budget *)
  opt : float;  (** exact optimum, or certified upper bound on it *)
  alg_weight : float;
  bb_nodes : int;
  born : int;  (** generation the candidate first appeared in *)
  op : string;  (** {!Gen.Perturb.op_name} that produced it; ["seed"] for
                    generation-0 candidates and fallback reseeds *)
}

type generation_log = {
  g_index : int;
  g_best : float;  (** best exact-certified ratio found so far (monotone) *)
  g_evaluated : int;
  g_hof_size : int;
}

type op_stat = { os_name : string; applied : int; improved : int }
(** Mutation-operator attribution: how often the operator was applied and
    how often its mutant strictly beat its parent's ratio. *)

type report = {
  r_config : config;
  r_bound : float;  (** the proven bound the hunted ratios chase *)
  hall_of_fame : scored list;  (** ratio-descending; exact-certified only *)
  log : generation_log list;  (** one entry per generation, index order *)
  op_stats : op_stat list;
  evaluated : int;
  exact_scores : int;
  lp_fallbacks : int;  (** evaluations that exhausted the node budget *)
}

val run : ?jobs:int -> config -> report
(** Run the hunt, evaluating candidates on [jobs] domains (default 1).
    Deterministic in [config], whatever [jobs].
    Raises [Invalid_argument] on an unknown [config.alg] or non-positive
    sizes. *)

val report_json : report -> Obs.Json.t
(** The [sap-hunt v1] document (docs/FORMAT.md). *)

val write_hof : dir:string -> report -> string list
(** Write each hall-of-fame instance to [dir] (created if missing) as
    [hunt-hof-<alg>-<rank>.inst] in the {!Sap_io.Instance_io} carrier;
    returns the file names written, rank order. *)

val pp_summary : Format.formatter -> report -> unit
(** Per-generation progress, operator attribution and the hall of fame. *)
