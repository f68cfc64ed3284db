(** The left-to-right edge sweep behind both band DPs: {!Band_dp} (UFPP,
    no heights) and [Sap.Elevator] (SAP, the paper's Lemma 13).

    A state is a set of *alive* tasks — placed tasks whose path covers the
    current edge — each with a height, plus its weight and every task placed
    so far.  At edge [e] the sweep drops from each state the tasks that
    ended at [e - 1], then offers each task starting at [e], in id order,
    to every state: the state skips it, and also places it at each height
    [heights j alive] lists.  Checking those heights against [alive] alone
    is complete: two overlapping tasks are alive together on every edge
    they share.

    States whose alive sets agree (same ids, same heights) are merged,
    keeping the heaviest: the paper's table [Pi(e_i, S_i, h_i)], evaluated
    on reachable states only.  A placed task joins every key it extends, so
    keys can only meet after tasks expire; that is the one place the sweep
    merges, and a state none of whose tasks ended is kept as it is.  The
    state list keeps first-insertion order, and every tie — in a merge, in
    the [max_states] cut (a stable sort by weight) and in the final pick —
    goes to the earlier state, so the result depends on the input alone. *)

type result = {
  placed : (Core.Task.t * int) list;
      (** the heaviest final state's tasks with their heights *)
  states : int;  (** live states summed over the edges *)
  truncations : int;
      (** task steps at which [max_states] cut the states; the result is
          optimal when this is 0 *)
}

val run :
  max_states:int ->
  edges:int ->
  heights:(Core.Task.t -> (Core.Task.t * int) list -> int list) ->
  Core.Task.t list ->
  result
(** [run ~max_states ~edges ~heights ts] sweeps edges [0 .. edges-1] over
    tasks with unique ids on those edges.  [heights j alive] lists distinct
    heights at which [j] fits next to every task of [alive] (sorted by id);
    after each task's step the heaviest [max_states] states survive. *)
