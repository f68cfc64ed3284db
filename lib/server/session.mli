(** Per-session state for online (churning) SAP instances.

    A session holds one instance and re-solves it incrementally as tasks
    arrive and depart.  The instance is kept partitioned into the
    bottleneck bands of Algorithm Strip-Pack ({!Core.Classify.strip_bands}
    semantics): bands are solved independently and stacked into disjoint
    vertical ranges, so a delta only invalidates the bands whose task set
    changed.  {!resolve} repacks exactly those dirty bands and reuses
    every untouched band's placements verbatim, bit for bit.  A band is
    packed by {!Sap.Small.solve_band}, the same LP, rounding and strip
    transform that [Small.strip_pack] runs, with the band LP restarted
    from the basis of its previous solve (its warm handle).  Each band's
    rounding generator is derived from the session seed and the band
    exponent only, so a band's placements are a pure function of (seed,
    band task set): repacking an unchanged band cold reproduces the same
    placements.

    The merged solution is re-verified by {!Core.Checker.sap_feasible}
    before it is returned; an infeasible merge (a bug, not an input
    property) comes back as [Error].

    A session value is not thread-safe; callers (the server's session
    registry) serialize access.  Emits [session.opened], [session.closed],
    [session.deltas], [session.resolves], [session.bands_repacked],
    [session.bands_reused] and the [session.resolve_seconds] histogram.
    Every repacked band that holds tasks also counts in [Small]'s
    metrics ([small.bands], [small.band_seconds], [small.lp_objective],
    [small.loss_fraction], [small.dropped_tasks]). *)

type t

type summary = {
  n_tasks : int;  (** tasks currently in the instance *)
  scheduled : int;  (** tasks placed by this resolve *)
  weight : float;
  bands : int;  (** bands currently tracked *)
  repacked : int;  (** bands repacked by this resolve *)
  reused : int;  (** bands reused verbatim *)
  warm_seeded : int;  (** repacked bands whose LP started from a basis *)
  time_ms : float;
}

val create : ?seed:int -> Core.Path.t -> Core.Task.t list -> (t, string) result
(** [create path tasks] opens a session on the base instance.  [seed]
    drives the per-band rounding generators (default:
    [Combine.default_config.seed]); each band rounds as the combine
    config does ([Combine.default_config.rounding], 16 LP-rounding
    trials).  Fails on duplicate task ids or tasks outside the path.
    The session starts with every band dirty — call {!resolve} for the
    initial solution. *)

val add_task : t -> Core.Task.t -> (unit, string) result
(** Fails on a duplicate id or a task outside the path.  A task whose
    demand exceeds its bottleneck is admitted but belongs to no band (it
    can never be scheduled — same filter as [Small.strip_pack]). *)

val remove_task : t -> int -> (unit, string) result
(** Remove by task id; fails if the id is not in the instance. *)

val resolve : ?cold:bool -> t -> (Core.Solution.sap * summary, string) result
(** Re-solve after deltas.  Warm (default): repack dirty bands only,
    seeding each band LP from its previous basis.  [~cold:true] repacks
    every band from scratch ignoring stored bases — the baseline the CR
    bench and the CI smoke compare against.  Either way the merged
    solution is checker-verified before being returned. *)

val tasks : t -> Core.Task.t list
(** Current instance tasks, unordered. *)

val close : t -> unit
(** Count the session closed; the value itself is garbage-collected. *)
