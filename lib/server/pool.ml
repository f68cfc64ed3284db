let h_queue_depth = Obs.Metrics.histogram "server.queue_depth"
let c_submitted = Obs.Metrics.counter "server.pool.submitted"
let c_completed = Obs.Metrics.counter "server.pool.completed"

exception Closed

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  mutable st : 'a state;
  fm : Mutex.t;
  fc : Condition.t;
}

type t = {
  n_workers : int;
  queue_capacity : int;
  jobs : (unit -> unit) Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closing : bool;
  mutable joined : bool;
  domains : unit Domain.t list Atomic.t;
  submitted : int Atomic.t;
  done_count : int Atomic.t;
  max_depth : int Atomic.t;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let worker_loop t () =
  let rec loop () =
    let job =
      locked t (fun () ->
          let rec take () =
            if not (Queue.is_empty t.jobs) then Some (Queue.pop t.jobs)
            else if t.closing then None
            else begin
              Condition.wait t.not_empty t.lock;
              take ()
            end
          in
          take ())
    in
    match job with
    | None -> ()
    | Some job ->
        Condition.signal t.not_full;
        job ();
        Atomic.incr t.done_count;
        Obs.Metrics.incr c_completed;
        loop ()
  in
  loop ()

let create ?workers ?queue_capacity () =
  let n_workers =
    match workers with
    | Some w -> max 1 w
    | None -> Util.Parallel.default_jobs ()
  in
  let queue_capacity =
    match queue_capacity with Some c -> max 1 c | None -> 4 * n_workers
  in
  let t =
    {
      n_workers;
      queue_capacity;
      jobs = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closing = false;
      joined = false;
      domains = Atomic.make [];
      submitted = Atomic.make 0;
      done_count = Atomic.make 0;
      max_depth = Atomic.make 0;
    }
  in
  Atomic.set t.domains (List.init n_workers (fun _ -> Domain.spawn (worker_loop t)));
  t

let complete fut st =
  Mutex.lock fut.fm;
  fut.st <- st;
  Condition.broadcast fut.fc;
  Mutex.unlock fut.fm

let submit t f =
  let fut = { st = Pending; fm = Mutex.create (); fc = Condition.create () } in
  let job () =
    match f () with v -> complete fut (Done v) | exception e -> complete fut (Failed e)
  in
  let depth =
    locked t (fun () ->
        let rec wait_slot () =
          if t.closing then raise Closed
          else if Queue.length t.jobs >= t.queue_capacity then begin
            Condition.wait t.not_full t.lock;
            wait_slot ()
          end
        in
        wait_slot ();
        Queue.push job t.jobs;
        Queue.length t.jobs)
  in
  Condition.signal t.not_empty;
  Atomic.incr t.submitted;
  Obs.Metrics.incr c_submitted;
  Obs.Metrics.observe h_queue_depth (float_of_int depth);
  let rec bump () =
    let m = Atomic.get t.max_depth in
    if depth > m && not (Atomic.compare_and_set t.max_depth m depth) then bump ()
  in
  bump ();
  fut

let completed fut =
  Mutex.lock fut.fm;
  let r = fut.st <> Pending in
  Mutex.unlock fut.fm;
  r

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.st with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        wait ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = wait () in
  Mutex.unlock fut.fm;
  match r with Ok v -> v | Error e -> raise e

(* [Condition] has no timed wait in the stdlib, so deadline waiting polls
   at millisecond granularity — coarse enough to cost nothing, fine
   enough for request timeouts measured in tens of milliseconds. *)
let await_until fut ~deadline =
  let rec loop () =
    Mutex.lock fut.fm;
    let st = fut.st in
    Mutex.unlock fut.fm;
    match st with
    | Done v -> Some v
    | Failed e -> raise e
    | Pending ->
        let now = Obs.Clock.monotonic_seconds () in
        if now >= deadline then None
        else begin
          Unix.sleepf (Float.min 0.001 (deadline -. now));
          loop ()
        end
  in
  loop ()

let shutdown t =
  let join =
    locked t (fun () ->
        if t.joined then false
        else begin
          t.closing <- true;
          t.joined <- true;
          true
        end)
  in
  if join then begin
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    List.iter Domain.join (Atomic.get t.domains);
    Atomic.set t.domains []
  end

type stats = {
  workers : int;
  queue_capacity : int;
  queue_depth : int;
  submitted : int;
  completed : int;
  max_queue_depth : int;
}

let stats (t : t) : stats =
  {
    workers = t.n_workers;
    queue_capacity = t.queue_capacity;
    queue_depth = locked t (fun () -> Queue.length t.jobs);
    submitted = Atomic.get t.submitted;
    completed = Atomic.get t.done_count;
    max_queue_depth = Atomic.get t.max_depth;
  }

let stats_json t =
  let s = stats t in
  Obs.Json.Obj
    [
      ("workers", Obs.Json.Int s.workers);
      ("queue_capacity", Obs.Json.Int s.queue_capacity);
      ("queue_depth", Obs.Json.Int s.queue_depth);
      ("submitted", Obs.Json.Int s.submitted);
      ("completed", Obs.Json.Int s.completed);
      ("max_queue_depth", Obs.Json.Int s.max_queue_depth);
    ]
