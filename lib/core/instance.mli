(** Loads of a task list on a path.  An instance is just a path and a task
    list: all algorithms pass {!Task.t} values around directly, so
    sub-instances are task lists over the same path and no re-indexing
    ever happens. *)

val load_profile : Path.t -> Task.t list -> int array
(** [load_profile p ts].(e) is the load [d(S(e))] of the task list on edge
    [e] — computed in O(n + m) with a difference array. *)

val max_load : Path.t -> Task.t list -> int
(** The paper's [LOAD(J)]: maximum per-edge load. *)
