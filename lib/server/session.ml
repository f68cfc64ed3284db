module Task = Core.Task
module Path = Core.Path

let m_opened = Obs.Metrics.counter "session.opened"

let m_closed = Obs.Metrics.counter "session.closed"

let m_deltas = Obs.Metrics.counter "session.deltas"

let m_resolves = Obs.Metrics.counter "session.resolves"

let m_repacked = Obs.Metrics.counter "session.bands_repacked"

let m_reused = Obs.Metrics.counter "session.bands_reused"

let h_resolve = Obs.Metrics.histogram "session.resolve_seconds"

(* One bottleneck band [J_t = { j : 2^t <= b(j) < 2^(t+1) }] of the
   session's instance.  The band owns everything a repack needs: its
   current tasks, the warm handle of its last LP solve, and the lifted
   placements of its last pack.  [b_dirty] is the repair frontier — a
   resolve repacks exactly the dirty bands and reuses the rest
   verbatim, which is what keeps untouched bands bit-identical. *)
type band = {
  bt : int;  (* band exponent t; B = 2^t *)
  mutable b_tasks : Task.t list;  (* kept sorted by id *)
  mutable b_dirty : bool;
  mutable b_warm : Sap.Small.warm option;
  mutable b_placed : Core.Solution.sap;  (* lifted into [B/2, B) *)
}

type t = {
  s_path : Path.t;
  s_seed : int;
  s_tasks : (int, Task.t) Hashtbl.t;
  s_bands : (int, band) Hashtbl.t;
}

type summary = {
  n_tasks : int;
  scheduled : int;
  weight : float;
  bands : int;
  repacked : int;
  reused : int;
  warm_seeded : int;
  time_ms : float;
}

let tasks t = Hashtbl.fold (fun _ j acc -> j :: acc) t.s_tasks []

(* Tasks that cannot fit alone ([d_j > b(j)]) belong to no band: they can
   never be scheduled, exactly like [Small.strip_pack]'s input filter. *)
let band_exponent t (j : Task.t) =
  let bj = Path.bottleneck_of t.s_path j in
  if j.Task.demand > bj then None else Some (Core.Classify.floor_log2 bj)

let band_for t bt =
  match Hashtbl.find_opt t.s_bands bt with
  | Some band -> band
  | None ->
      let band =
        { bt; b_tasks = []; b_dirty = true; b_warm = None; b_placed = [] }
      in
      Hashtbl.replace t.s_bands bt band;
      band

let validate_task t (j : Task.t) =
  if j.Task.first_edge < 0 || j.Task.last_edge >= Path.num_edges t.s_path then
    Error
      (Printf.sprintf "task %d spans edges [%d, %d] outside the path"
         j.Task.id j.Task.first_edge j.Task.last_edge)
  else Ok ()

let add_task t (j : Task.t) =
  match validate_task t j with
  | Error _ as e -> e
  | Ok () ->
      if Hashtbl.mem t.s_tasks j.Task.id then
        Error (Printf.sprintf "duplicate task id %d" j.Task.id)
      else begin
        Hashtbl.replace t.s_tasks j.Task.id j;
        (match band_exponent t j with
        | None -> ()
        | Some bt ->
            let band = band_for t bt in
            band.b_tasks <-
              List.merge
                (fun (a : Task.t) b -> compare a.Task.id b.Task.id)
                [ j ] band.b_tasks;
            band.b_dirty <- true);
        Obs.Metrics.incr m_deltas;
        Ok ()
      end

let remove_task t id =
  match Hashtbl.find_opt t.s_tasks id with
  | None -> Error (Printf.sprintf "unknown task id %d" id)
  | Some j ->
      Hashtbl.remove t.s_tasks id;
      (match band_exponent t j with
      | None -> ()
      | Some bt ->
          let band = band_for t bt in
          band.b_tasks <-
            List.filter (fun (x : Task.t) -> x.Task.id <> id) band.b_tasks;
          band.b_dirty <- true);
      Obs.Metrics.incr m_deltas;
      Ok ()

(* One band through [Small.solve_band], with two session twists: the LP
   restarts from the band's previous basis (warm), and the rounding
   generator is derived from (session seed, band exponent) only — never
   from other bands' draw counts — so a band's placements are a pure
   function of its own task set and the session seed.  The third result
   says whether the LP started from a basis. *)
let pack_band t band ~cold =
  let b = 1 lsl band.bt in
  let warm = if cold || band.b_tasks = [] then None else band.b_warm in
  let placed, warm' =
    Sap.Small.solve_band ?warm ~b
      ~rounding:Sap.Combine.default_config.Sap.Combine.rounding
      ~prng:(Util.Prng.create ((t.s_seed * 1_000_003) + band.bt))
      t.s_path band.b_tasks
  in
  (Core.Solution.lift placed (b / 2), warm', warm <> None)

let sorted_bands t =
  Hashtbl.fold (fun _ band acc -> band :: acc) t.s_bands []
  |> List.sort (fun a b -> compare a.bt b.bt)

let resolve ?(cold = false) t =
  let t0 = Obs.Clock.monotonic_seconds () in
  Obs.Metrics.time h_resolve @@ fun () ->
  Obs.Metrics.incr m_resolves;
  let repacked = ref 0 and reused = ref 0 and warm_seeded = ref 0 in
  let bands = sorted_bands t in
  List.iter
    (fun band ->
      if cold || band.b_dirty then begin
        let placed, warm', seeded = pack_band t band ~cold in
        band.b_placed <- placed;
        band.b_warm <- warm';
        band.b_dirty <- false;
        incr repacked;
        if seeded then incr warm_seeded
      end
      else incr reused)
    bands;
  Obs.Metrics.add m_repacked !repacked;
  Obs.Metrics.add m_reused !reused;
  let merged =
    List.fold_left
      (fun acc band -> Core.Solution.union acc band.b_placed)
      [] bands
  in
  (* Band independence makes the merge sound, but no response leaves the
     session on faith: the full merged placement is machine-checked. *)
  match Core.Checker.sap_feasible t.s_path merged with
  | Error m -> Error ("session produced an infeasible solution: " ^ m)
  | Ok () ->
      let time_ms = (Obs.Clock.monotonic_seconds () -. t0) *. 1000.0 in
      Ok
        ( merged,
          {
            n_tasks = Hashtbl.length t.s_tasks;
            scheduled = List.length merged;
            weight = Core.Solution.sap_weight merged;
            bands = List.length bands;
            repacked = !repacked;
            reused = !reused;
            warm_seeded = !warm_seeded;
            time_ms;
          } )

let create ?(seed = Sap.Combine.default_config.Sap.Combine.seed) path ts =
  let t =
    {
      s_path = path;
      s_seed = seed;
      s_tasks = Hashtbl.create 64;
      s_bands = Hashtbl.create 8;
    }
  in
  let rec add = function
    | [] -> Ok t
    | j :: rest -> (
        match add_task t j with Error _ as e -> e | Ok () -> add rest)
  in
  Result.map
    (fun t ->
      Obs.Metrics.incr m_opened;
      t)
    (add ts)

let close _t = Obs.Metrics.incr m_closed
