(** Small tasks: Theorem 1 — the [(4+eps)]-approximation of Section 4.

    Pipeline per bottleneck band [J_t = { j : 2^t <= b(j) < 2^(t+1) }]
    (so [B = 2^t]):
    + solve the UFPP LP over the band with capacities clipped to [2B]
      (Observation 2 makes the clipping free);
    + scale the fractional optimum by 1/4, making every per-edge
      fractional load at most [B/2];
    + round to an integral [B/2]-packable UFPP solution
      ({!Ufpp.Lp_rounding}, role of Chekuri et al. Thm 6) — or, with
      [`Local_ratio], run the Appendix's Algorithm Strip instead;
    + transform the strip UFPP solution into a strip SAP solution
      ({!Dsa.Strip_transform}, role of Lemma 4);
    + Algorithm Strip-Pack: lift band [t]'s strip by [2^(t-1)] and stack
      (bands occupy disjoint vertical ranges [ [2^(t-1), 2^t) ]). *)

type rounding = [ `Lp of int (** trials *) | `Local_ratio ]

type warm = Lp.Ufpp_lp.warm
(** The band LP's warm-start handle ({!Lp.Ufpp_lp.solve_scaled_warm}). *)

val solve_band :
  ?warm:warm ->
  b:int ->
  rounding:rounding ->
  prng:Util.Prng.t ->
  Core.Path.t ->
  Core.Task.t list ->
  Core.Solution.sap * warm option
(** [solve_band ~b ...] handles one band: all bottlenecks must lie in
    [\[b, 2b)].  Returns a [b/2]-packable SAP solution (heights in
    [0, b/2)) and the band LP's warm handle.

    [warm] is the handle of an earlier solve of this band, possibly
    over a different task set: the LP restarts from its basis instead
    of from scratch.  Online sessions keep one handle per band this
    way.  The returned handle is [None] under [`Local_ratio] (no LP).
    An empty band and a band with [b/2 = 0] return [([], None)] before
    any LP, touching neither the generator nor the [small.*] metrics. *)

val strip_pack :
  ?parallel:bool ->
  rounding:rounding ->
  prng:Util.Prng.t ->
  Core.Path.t ->
  Core.Task.t list ->
  Core.Solution.sap
(** Algorithm Strip-Pack over all bands.  The returned solution is feasible
    for the original path (checked by the callers' test harness).

    With [~parallel:true] (default false) the bands fan out over
    {!Util.Parallel.map}.  Each band draws from a child generator jumped
    ({!Util.Prng.jump}) to the exact position the sequential band order
    would reach it at, so the placements — and therefore every weight
    gauge — are identical whether bands run on one domain or many.
    [prng] is advanced past all bands' draws either way. *)
