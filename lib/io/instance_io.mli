(** Plain-text serialization of instances and solutions.

    Format (line oriented, [#] comments, blank lines ignored):

    {v
    sap-instance v1
    capacities 5 10 10 5
    task <id> <first_edge> <last_edge> <demand> <weight>
    ...
    v}

    Solutions append height lines to the same carrier:

    {v
    sap-solution v1
    place <task_id> <height>
    ...
    v}

    Task ids must be unique, weights finite, and capacities and demands
    at most {!max_quantity}; the parser rejects an instance otherwise, so
    the CLI, the corpus and every protocol body share one check.  The CLI
    uses these for [gen | solve | check] pipelines; round-tripping is
    property-tested.

    Each format has one parser, over a list of lines (without their
    newlines): a protocol frame hands over its body lines as read.  Each
    [*_of_string] splits its text at ['\n'] and calls the matching
    [*_of_lines], so both accept the same inputs with the same errors. *)

val max_quantity : int
(** [2^40], the largest capacity or demand any parser accepts.  Up to
    it the band ceilings [2^(k+ell)] stay at most [2^44] ([ell = 4] at
    the default configuration), an edge's load sum cannot overflow
    before [2^22] tasks share the edge, and every value is exact in a
    double, so the LP sees it unrounded. *)

val check_quantity : string -> int -> (int, string) result
(** [check_quantity what v] is [Ok v] when [v <= max_quantity], else an
    error naming [what], [v] and the limit.  Shared with the protocol's
    [add-task]. *)

(** {1 Line and field parsers}

    What every line format here is parsed with, exported so the churn
    traces of [Lab.Corpus] and the protocol's headers parse their fields
    with the same code and report the same errors. *)

val meaningful_lines : string list -> string list
(** The trimmed lines, without blank and [#] comment lines. *)

val words : string -> string list
(** The space-separated words of a line, without empty ones. *)

val parse_int : string -> string -> (int, string) result
(** [parse_int what s]: the error names [what] and quotes [s]. *)

val parse_float : string -> string -> (float, string) result

val parse_quantity : string -> string -> (int, string) result
(** {!parse_int}, then {!check_quantity}: a capacity or a demand. *)

val map_result :
  ('a -> ('b, string) result) -> 'a list -> ('b list, string) result
(** [f] over the list in order, stopping at the first error. *)

val task_of_fields : line:string -> string list -> (Core.Task.t, string) result
(** A task from the five fields [id first_edge last_edge demand weight]
    that follow a task line's keyword.  Any other number of fields is a
    malformed line, quoted from [line]. *)

val check_tasks : Core.Path.t -> Core.Task.t list -> (unit, string) result
(** The check every instance's task list passes: each task ends on the
    path and no id repeats. *)

(** {1 Formats} *)

val instance_to_string : Core.Path.t -> Core.Task.t list -> string

val instance_of_lines :
  string list -> (Core.Path.t * Core.Task.t list, string) result

val instance_of_string : string -> (Core.Path.t * Core.Task.t list, string) result

val solution_to_string : Core.Solution.sap -> string

val solution_of_lines :
  tasks:Core.Task.t list -> string list -> (Core.Solution.sap, string) result
(** Resolves task ids against [tasks]; unknown ids are an error. *)

val solution_of_string :
  tasks:Core.Task.t list -> string -> (Core.Solution.sap, string) result

val ring_to_string : Core.Ring.t -> string
(** Ring instances ride the same carrier with their own header:

    {v
    ring-instance v1
    capacities 5 10 10 5
    rtask <id> <src> <dst> <demand> <weight>
    ...
    v}

    Terminals are vertices in [0 .. m-1]; routing is not part of the
    instance.  Used by the ratio lab's corpus. *)

val ring_of_string : string -> (Core.Ring.t, string) result

val round_instance_to_string : Core.Path.t -> Core.Task.t list -> string
(** ROUND-SAP instances are carrier-isomorphic to [sap-instance v1] —
    only the header differs, declaring the all-tasks-mandatory
    minimum-rounds objective:

    {v
    round-instance v1
    capacities 5 10 10 5
    task <id> <first_edge> <last_edge> <demand> <weight>
    ...
    v}

    Parsing validates both carriers alike: shape, tasks on the path,
    unique ids and finite non-negative weights.  Whether every task fits
    alone is checked by [Round.Instance.create]. *)

val round_instance_of_lines :
  string list -> (Core.Path.t * Core.Task.t list, string) result

val round_instance_of_string :
  string -> (Core.Path.t * Core.Task.t list, string) result

val round_solution_to_string : Core.Solution.sap list -> string
(** {v
    round-solution v1
    rounds <n>
    place <task_id> <round> <height>
    ...
    v} *)

val round_solution_of_lines :
  tasks:Core.Task.t list ->
  string list ->
  (Core.Solution.sap list, string) result
(** Reconstructs exactly [rounds n] rounds (possibly empty lists if a
    round index is unused — the round checker rejects those).  Unknown
    task ids and out-of-range round indices are errors. *)

val round_solution_of_string :
  tasks:Core.Task.t list ->
  string ->
  (Core.Solution.sap list, string) result

val write_file : string -> string -> unit

val read_file : string -> string
