(** A primal network simplex for the UFPP LP (1) in flow form.

    [maximize sum_j w_j x_j  s.t.  sum_(j : e in I_j) d_j x_j <= c_e,
    0 <= x_j <= 1] becomes a flow once [y_j = d_j x_j] is substituted
    and each edge row is subtracted from the next.  On the path's nodes
    [0..m]:
    - node [v] supplies [c_v - c_(v-1)], with [c_(-1) = c_m = 0];
    - the slack of edge [e] is a free, uncapacitated arc [e -> e+1];
    - task [j] is an arc [s_j -> t_j + 1] with capacity [d_j] and profit
      [w_j / d_j] per unit.

    The all-slack path, rooted at node [m], is a strongly feasible start
    tree, so no phase one is needed even when some [c_e] is 0.  Entering
    arcs are priced Dantzig-style on the x scale ([d_j] times the
    per-unit reduced profit), the rule a dense tableau would apply to the
    same LP.  The leaving arc is the last blocking arc met from the apex
    of the pivot cycle, which keeps the tree strongly feasible and rules
    out cycling without an anti-cycling fallback.  Tree potentials are
    recomputed after every tree change.

    Emits counters [simplex.solves], [simplex.iterations] (pivots plus
    bound flips), [simplex.bound_flips], [simplex.pivots_cells_touched]
    (arcs priced plus tree arcs and nodes walked),
    [simplex.warm_restarts], [simplex.warm_pivots_saved],
    [simplex.warm_fallbacks], the histogram [simplex.row_nnz] (arcs
    incident to each node: the nonzeros of its flow-conservation row)
    and, at 0, [simplex.bland_activations]. *)

type basis = {
  tree_cols : int array;  (** columns whose task arcs are in the tree *)
  tree_edges : int array;  (** edges whose slack arcs are in the tree *)
  upper_cols : int array;  (** nonbasic columns at [x = 1] *)
}
(** A spanning-tree basis.  Every arc not listed is nonbasic at 0. *)

type result = {
  value : float;  (** optimal objective *)
  x : float array;  (** optimal [x], by column *)
  basis : basis;  (** the optimal tree, to warm-start a related LP *)
}

val solve : ?warm:basis -> capacity:float array -> Core.Task.t array -> result
(** [solve ~capacity cols] solves LP (1) over the columns [cols], tasks
    on the edges of a path whose edge [e] has capacity
    [capacity.(e) >= 0].  Columns that do not fit alone are not dropped
    here: {!Ufpp_lp} leaves them out before calling.

    [warm] seeds the tree from another basis of the same path, given in
    this problem's columns (entries out of range are ignored).  Its tree
    arcs are installed unless they close a cycle, slack arcs reconnect
    the components, its upper columns outside the tree start at [x = 1]
    and the tree flows follow leaf-up.  An installed tree need not be
    strongly feasible, so the solve restarts cold when a tree flow leaves
    its bounds or when the iteration cap is hit; a warm call never fails
    where a cold one would not.  [simplex.warm_restarts] counts warm
    solves that finished from the warm tree and [simplex.warm_pivots_saved]
    the task arcs they installed; [simplex.warm_fallbacks] counts warm
    solves that restarted cold.

    Raises [Invalid_argument] on a negative capacity, and [Failure] if a
    cold solve hits the iteration cap ([50 * (columns + edges + 1)]),
    which would be a bug. *)
