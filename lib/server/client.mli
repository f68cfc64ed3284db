(** Pipelined batch client for the solve service.

    [run_batch] ships one [solve] frame per instance (ids are the list
    indices), optionally followed by a [stats] frame and a [shutdown]
    frame, then collects the responses.  Requests are written from the
    calling domain while a dedicated reader domain consumes responses, so
    a large batch cannot deadlock against a backpressuring server: the
    server may stop reading (queue full) while responses are still
    streaming out, and both directions keep moving. *)

type batch_result = {
  responses : Protocol.response option array;
      (** index [i] answers instance [i]; [None] if the connection died
          before its response arrived *)
  stats : Obs.Json.t option;  (** the [stats] payload, when requested *)
  shutdown_acked : bool;
  transport_errors : string list;
      (** unparseable or unattributable response frames *)
}

val run_batch :
  ic:in_channel ->
  oc:out_channel ->
  params:Protocol.solve_params ->
  ?request_stats:bool ->
  ?request_shutdown:bool ->
  (Core.Path.t * Core.Task.t list) list ->
  batch_result
(** Drive one connection.  After the last frame the send direction is
    half-closed ([SHUTDOWN_SEND]; a no-op on non-socket streams), which
    tells the server no more work is coming and triggers its end-of-input
    drain.  Returns once every expected response arrived or the stream
    ended.  Does not close the channels — the caller owns the fd. *)

val request :
  ic:in_channel ->
  oc:out_channel ->
  tasks_for:(int -> Core.Task.t list option) ->
  Protocol.request ->
  (Protocol.response, string) result
(** Synchronous single round-trip: write one frame, block for one
    response frame.  This is what the session verbs use
    ([Lab.Loadgen.session] drives open → deltas → resolve → close
    strictly in order), where pipelining buys nothing and an in-order
    conversation keeps the client trivial.  [tasks_for] resolves solution bodies exactly as in
    {!run_batch} — for session replies, pass the client's view of the
    session's current task set.  The error is printable (write failure,
    closed stream, or an unparseable frame). *)

val connect_unix : string -> (Unix.file_descr, string) result
(** Connect to a Unix-domain socket; the error is printable. *)
