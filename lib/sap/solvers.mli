(** The SAP algorithm registry — one name-keyed table that the CLI, the
    server, the ratio lab, the hunt and the bench all enumerate, so an
    algorithm's name, configuration and proven bound are written once.

    Every entry derives its knobs from {!Combine.default_config}, so a
    standalone [small] run is exactly what [combine] feeds its small part
    (given the same seed); [seed] reaches every randomized engine and
    [parallel] only changes the schedule, never the result. *)

type t = {
  name : string;
  bound : float option;
      (** the proven approximation ratio at the default configuration —
          [4 + eps] small (Theorem 1), [2 + eps] medium (Theorem 2),
          [3] large (Theorem 3), their sum for combine (Lemma 3); [None]
          for the baselines and the exact solver *)
  part : Combine.part option;
      (** the Theorem 4 class the bound holds on ({!subset}); [None]:
          the whole task set *)
  solve :
    seed:int -> parallel:bool -> Core.Path.t -> Core.Task.t list ->
    Core.Solution.sap;
}

val all : t list
(** In order: ["small"], ["medium"], ["large"], ["combine"], ["sapu"]
    (uniform capacities only: [Invalid_argument] otherwise),
    ["firstfit"], ["exact"] (the sequential {!Exact.Exact_bb} under its
    default node budget — optimal when the search closes, the best
    incumbent otherwise). *)

val find : string -> t option

val names : string list

val subset : t -> Core.Path.t -> Core.Task.t list -> Core.Task.t list
(** The tasks of [s.part]'s class ({!Combine.split} at the default
    configuration); the identity when [part = None]. *)
