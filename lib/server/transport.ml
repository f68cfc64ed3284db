module P = Protocol

let c_bad_frames = Obs.Metrics.counter "server.bad_frames"
let c_connections = Obs.Metrics.counter "server.connections"

(* The one request-frame loop, shared by [serve] connections and the
   router's front.  Responses drain on a per-connection {!Pump}: pushed
   in arrival order, each written the moment it (and everything before
   it) is ready.  Flushing from the read loop instead would strand the
   tail of a pipelined connection that goes quiet without closing — the
   router's link to a shard after a load burst — because nothing inbound
   would ever trigger the flush. *)
let serve_frames ic oc handle =
  let pump = Pump.create () in
  let read_line () = try Some (input_line ic) with End_of_file -> None in
  let rec loop () =
    match P.read_frame ~read_line with
    | None -> ()
    | Some lines ->
        let respond, stop =
          match P.request_of_lines lines with
          | Error (id, m) ->
              Obs.Metrics.incr c_bad_frames;
              let resp = P.Failed { id; code = P.Bad_request; message = m } in
              ((fun () -> P.response_to_string resp), false)
          | Ok req -> (handle req, match req with P.Shutdown _ -> true | _ -> false)
        in
        Pump.push pump (fun () ->
            output_string oc (respond ());
            flush oc);
        if not stop then loop ()
  in
  (* A peer that vanishes mid-read surfaces as Sys_error; the connection
     is over, but every admitted request still gets its response written
     (or discarded on EPIPE) by the pump before we return. *)
  (try loop () with Sys_error _ -> ());
  Pump.finish pump

let serve_channels t ic oc =
  Obs.Metrics.incr c_connections;
  serve_frames ic oc (fun req ->
      let pending = Server.submit t req in
      fun () -> P.response_to_string (pending ()))

(* ---------- stop handles (self-pipe) ---------- *)

(* A stop request must wake an accept loop that is blocked in [select]
   with no timeout.  The classic self-pipe does that: [request_stop] sets
   the flag and writes one byte; the loop selects on the pipe's read end
   alongside the listening socket, so it wakes immediately instead of
   polling on a short timeout (which used to wake idle servers 5x/s).
   Session domains reuse the same pipe to request a reap when they
   finish.  OCaml signal handlers run as ordinary code at safe points, so
   calling [request_stop] from one is fine. *)
type stopper = {
  st_flag : bool Atomic.t;
  st_read : Unix.file_descr;
  st_write : Unix.file_descr;
}

let stopper () =
  let st_read, st_write = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock st_read;
  Unix.set_nonblock st_write;
  { st_flag = Atomic.make false; st_read; st_write }

let wake st =
  try ignore (Unix.write_substring st.st_write "!" 0 1)
  with Unix.Unix_error _ -> ()
(* EAGAIN: the pipe already holds pending wakeups — the loop will wake. *)

let request_stop st =
  Atomic.set st.st_flag true;
  wake st

let stop_requested st = Atomic.get st.st_flag

let drain_wakeups st =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read st.st_read buf 0 64 with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

let close_stopper st =
  (try Unix.close st.st_read with Unix.Unix_error _ -> ());
  try Unix.close st.st_write with Unix.Unix_error _ -> ()

(* ---------- unix-domain accept loop ---------- *)

(* One domain per accepted connection, so a pipelined load generator's N
   connections and a live [stats] scrape all make progress while earlier
   solves are in flight.  The accept loop blocks in [select] on the
   listening socket plus the stopper's self-pipe: a stop request (signal
   handler, shutdown frame processed by a session, session finishing and
   wanting a reap) wakes it immediately, and an idle server makes no
   syscalls at all.  Connection fds are closed by the accept loop after
   joining their domain, never by the domain itself, so the graceful-stop
   path can safely [shutdown] a live connection's receive side to unblock
   its reader (which then drains every admitted request before exiting —
   no accepted request loses its response). *)
let serve_unix_sessions ?on_bound ?stop ?(draining = fun () -> false) session
    ~socket_path =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let st, owns_stopper =
    match stop with Some s -> (s, false) | None -> (stopper (), true)
  in
  (* Every fd here is close-on-exec: a server that forks helper processes
     (the router respawning a shard) must not leak client connections into
     them — an inherited fd would keep the peer's stream open after we
     close ours, so the peer never sees EOF. *)
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
      if owns_stopper then close_stopper st)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX socket_path);
      Unix.listen sock 64;
      Option.iter (fun f -> f socket_path) on_bound;
      let should_stop () = draining () || stop_requested st in
      let conns = ref [] in
      let conns_lock = Mutex.create () in
      let spawn_conn fd =
        let finished = Atomic.make false in
        let dom =
          Domain.spawn (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set finished true;
                  wake st)
                (fun () ->
                  let ic = Unix.in_channel_of_descr fd in
                  let oc = Unix.out_channel_of_descr fd in
                  session ic oc;
                  try flush oc with Sys_error _ -> ()))
        in
        Mutex.lock conns_lock;
        conns := (fd, dom, finished) :: !conns;
        Mutex.unlock conns_lock
      in
      let reap () =
        Mutex.lock conns_lock;
        let done_, live =
          List.partition (fun (_, _, fin) -> Atomic.get fin) !conns
        in
        conns := live;
        Mutex.unlock conns_lock;
        List.iter
          (fun (fd, dom, _) ->
            Domain.join dom;
            try Unix.close fd with Unix.Unix_error _ -> ())
          done_
      in
      let rec accept_loop () =
        if not (should_stop ()) then begin
          (match Unix.select [ sock; st.st_read ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | ready, _, _ ->
              if List.mem st.st_read ready then drain_wakeups st;
              if List.mem sock ready then (
                match Unix.accept sock with
                | exception
                    Unix.Unix_error
                      ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
                  ->
                    ()
                | fd, _peer ->
                    Unix.set_close_on_exec fd;
                    spawn_conn fd));
          reap ();
          accept_loop ()
        end
      in
      accept_loop ();
      (* Stop accepting; unblock every live reader, then wait for each
         connection to flush the responses it still owes. *)
      Mutex.lock conns_lock;
      let all = !conns in
      conns := [];
      Mutex.unlock conns_lock;
      List.iter
        (fun (fd, _, fin) ->
          if not (Atomic.get fin) then
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
        all;
      List.iter
        (fun (fd, dom, _) ->
          Domain.join dom;
          try Unix.close fd with Unix.Unix_error _ -> ())
        all)

let serve_unix ?on_bound ?stop t ~socket_path =
  serve_unix_sessions ?on_bound ?stop
    ~draining:(fun () -> Server.draining t)
    (fun ic oc -> serve_channels t ic oc)
    ~socket_path
