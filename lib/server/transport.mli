(** Byte-stream transports for the solve service.

    One connection = one framed request/response stream ({!Protocol}).
    The connection loop ({!serve_frames}) reads frames and admits each
    one — for a server via {!Server.submit}, which blocks on the pool's
    bounded queue when the server is saturated, so backpressure reaches
    the client through the kernel socket buffer.  Admission returns a
    response thunk, which goes to the connection's {!Pump}: a writer
    domain forces the thunks in admission order and writes each response
    the moment it is ready (ids let pipelined clients re-associate them
    anyway).  A frame that does not parse is answered with an [error]
    response under its own id, or under id [-1] when its header does not
    parse; the stream stays usable.

    End of input drains every admitted request in order before closing;
    a [shutdown] frame additionally drains the server itself (finish
    in-flight, refuse new) and acknowledges {e after} the drain, so a
    client that waits for the ack observes a fully quiesced server. *)

val serve_frames :
  in_channel -> out_channel -> (Protocol.request -> unit -> string) -> unit
(** [serve_frames ic oc handle] is the request-frame loop of every
    connection, to a server ({!serve_channels}) or to a router
    ({!Router.serve}).  Each parsed request is admitted with
    [handle req] on the reading domain; the returned thunk is forced on
    the pump's writer domain and must produce the full response frame.
    A frame that does not parse is answered with [bad-request] and
    counted in [server.bad_frames]: under the request's id when only its
    body was rejected, under id [-1] when its header does not parse.  Reading stops at end of
    input, after a [shutdown] frame, or when the peer disappears; every
    admitted request is answered before the call returns.  Never raises
    for transport-level failures. *)

val serve_channels : Server.t -> in_channel -> out_channel -> unit
(** Serve one connection (or a stdio session) to completion:
    {!serve_frames} with {!Server.submit} as the handler. *)

(** {2 Stop handles}

    A [stopper] is a self-pipe-backed stop request: an atomic flag plus a
    wakeup pipe that the accept loop selects on alongside its listening
    socket.  [request_stop] therefore takes effect {e immediately} — the
    loop is not polling on a timeout — and an idle server parks in
    [select] making no syscalls at all.  [request_stop] is safe from an
    OCaml signal handler (handlers run as ordinary code at safe points)
    and from any domain. *)

type stopper

val stopper : unit -> stopper
(** A fresh stop handle.  Feed it to {e one} [serve_unix*] call;
    stoppers are single-use (the flag never resets). *)

val request_stop : stopper -> unit
(** Set the flag and wake the accept loop.  Idempotent. *)

val close_stopper : stopper -> unit
(** Release the pipe fds.  Only call after the serving call using this
    stopper has returned.  [serve_unix*] closes stoppers it created
    itself (when [?stop] was omitted). *)

val serve_unix_sessions :
  ?on_bound:(string -> unit) ->
  ?stop:stopper ->
  ?draining:(unit -> bool) ->
  (in_channel -> out_channel -> unit) ->
  socket_path:string ->
  unit
(** Generic accept loop: bind a Unix-domain socket (replacing any stale
    socket file), call [on_bound] with the bound path, then serve each
    accepted connection with [session] in its own domain until
    [request_stop stop] is called or [draining ()] turns true.  Stopping
    is graceful: accepting ceases, every live connection's receive side
    is shut down so its reader unblocks, and each session runs to
    completion (draining the responses it owes) before the call returns
    and removes the socket file.  SIGPIPE is ignored for the process (a
    dead peer must surface as [EPIPE], not a kill).  Connection fds are
    owned by the accept loop and closed only after the session's domain
    is joined. *)

val serve_unix :
  ?on_bound:(string -> unit) ->
  ?stop:stopper ->
  Server.t ->
  socket_path:string ->
  unit
(** [serve_unix_sessions] specialised to {!serve_channels} on a
    {!Server.t}: accepts until a [shutdown] frame arrives (the server
    starts draining) or [request_stop] is called (e.g. from a SIGINT
    handler). *)
