module Task = Core.Task
module Path = Core.Path

type outcome = {
  solution : Core.Solution.sap;
  value : float;
  upper_bound : float;
  optimal : bool;
  nodes : int;
}

let c_nodes = Obs.Metrics.counter "lab.bb.nodes"

let c_lp_cuts = Obs.Metrics.counter "lab.bb.lp_cuts"

let c_memo_cuts = Obs.Metrics.counter "lab.bb.memo_cuts"

let c_budget_exhausted = Obs.Metrics.counter "lab.bb.budget_exhausted"

let default_max_nodes = 20_000_000

(* Weight density: value per unit of consumed area (demand x span).
   Branching on dense tasks first makes the greedy dive a strong incumbent
   and the residual-weight suffix a tight optimistic bound.  Shape
   tie-breaks keep interchangeable tasks adjacent for the symmetry cut. *)
let density (j : Task.t) =
  j.Task.weight /. float_of_int (j.Task.demand * Task.span j)

let search_order (x : Task.t) (y : Task.t) =
  let c = Float.compare (density y) (density x) in
  if c <> 0 then c
  else
    let c = Int.compare x.Task.first_edge y.Task.first_edge in
    if c <> 0 then c
    else
      let c = Int.compare x.Task.last_edge y.Task.last_edge in
      if c <> 0 then c
      else
        let c = Int.compare x.Task.demand y.Task.demand in
        if c <> 0 then c
        else
          let c = Float.compare y.Task.weight x.Task.weight in
          if c <> 0 then c else Int.compare x.Task.id y.Task.id

let identical (x : Task.t) (y : Task.t) =
  x.Task.first_edge = y.Task.first_edge
  && x.Task.last_edge = y.Task.last_edge
  && x.Task.demand = y.Task.demand
  && Float.equal x.Task.weight y.Task.weight

let conflicts (j : Task.t) p ((i : Task.t), hi) =
  Task.overlaps j i && p < hi + i.Task.demand && hi < p + j.Task.demand

(* ---------- shared search state (one search, possibly many domains) ---- *)

(* The incumbent is shared through an Atomic holding an immutable pair;
   CAS-loop updates keep concurrent subtree workers lost-update-free.  The
   node counter doubles as the budget: it only ever grows, so once it
   crosses [max_nodes] every worker winds down deterministically. *)
type shared = {
  best : (float * Core.Solution.sap) Atomic.t;
  spent : int Atomic.t;
  max_nodes : int;
  exhausted : bool Atomic.t;
}

let update_best shared w sol =
  let rec go () =
    let ((bw, _) as cur) = Atomic.get shared.best in
    if w > bw && not (Atomic.compare_and_set shared.best cur (w, sol)) then go ()
  in
  go ()

exception Out_of_budget

let charge_node shared =
  Obs.Metrics.incr c_nodes;
  if Atomic.fetch_and_add shared.spent 1 >= shared.max_nodes then begin
    if not (Atomic.exchange shared.exhausted true) then
      Obs.Metrics.incr c_budget_exhausted;
    raise Out_of_budget
  end

(* ---------- the search proper ---------- *)

type ctx = {
  path : Path.t;
  a : Task.t array;  (* search order *)
  suffix : float array;
  candidates : int list;  (* gravity heights: bounded subset sums *)
  slack : int array;  (* slack.(i) = b(a_i) - d(a_i): max feasible height *)
  shared : shared;
  memo : (string, float) Hashtbl.t;
  memo_cap : int;
  lp_depth : int;  (* residual-LP bound computed at depths < lp_depth *)
  lp_min_remaining : int;
}

type prev_choice = Free | Skipped | Placed_at of int

(* Occupancy signature: task index plus, per edge, the sorted occupied
   vertical intervals.  Two states agreeing on both have identical
   feasible completions over the identical remaining-task suffix, so the
   lower-weight one is dominated — this also collapses permutations of
   interchangeable placements that the adjacency cut cannot see. *)
let signature ctx i placed =
  let m = Path.num_edges ctx.path in
  let per_edge = Array.make m [] in
  List.iter
    (fun ((j : Task.t), h) ->
      for e = j.Task.first_edge to j.Task.last_edge do
        per_edge.(e) <- (h, h + j.Task.demand) :: per_edge.(e)
      done)
    placed;
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int i);
  Array.iteri
    (fun e ivs ->
      match List.sort compare ivs with
      | [] -> ()
      | ivs ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int e);
          List.iter
            (fun (lo, hi) ->
              Buffer.add_char buf ':';
              Buffer.add_string buf (string_of_int lo);
              Buffer.add_char buf '-';
              Buffer.add_string buf (string_of_int hi))
            ivs)
    per_edge;
  Buffer.contents buf

let residual_loads ctx placed =
  let m = Path.num_edges ctx.path in
  let res = Array.init m (fun e -> Path.capacity ctx.path e) in
  List.iter
    (fun ((j : Task.t), _) ->
      for e = j.Task.first_edge to j.Task.last_edge do
        res.(e) <- res.(e) - j.Task.demand
      done)
    placed;
  res

let remaining_tasks ctx i =
  let rec go k acc = if k < i then acc else go (k - 1) (ctx.a.(k) :: acc) in
  go (Array.length ctx.a - 1) []

(* Depth-first take/skip search from task [i].  [depth] counts branching
   decisions on the current path (the frontier hand-off resets it), and
   gates the residual-LP bound to the top of the tree where it pays. *)
let rec branch ctx i placed w depth prev =
  charge_node ctx.shared;
  update_best ctx.shared w placed;
  let n = Array.length ctx.a in
  if i < n then begin
    let bw, _ = Atomic.get ctx.shared.best in
    if w +. ctx.suffix.(i) > bw +. 1e-9 then begin
      let dominated =
        let key = signature ctx i placed in
        match Hashtbl.find_opt ctx.memo key with
        | Some w' when w' >= w -. 1e-12 ->
            Obs.Metrics.incr c_memo_cuts;
            true
        | _ ->
            if Hashtbl.length ctx.memo < ctx.memo_cap then
              Hashtbl.replace ctx.memo key w;
            false
      in
      if not dominated then begin
        let lp_cut =
          depth < ctx.lp_depth
          && n - i >= ctx.lp_min_remaining
          &&
          let res = residual_loads ctx placed in
          let ub =
            Lp.Ufpp_lp.upper_bound_residual ctx.path ~residual:res
              (remaining_tasks ctx i)
          in
          let bw, _ = Atomic.get ctx.shared.best in
          if w +. ub <= bw +. 1e-9 then begin
            Obs.Metrics.incr c_lp_cuts;
            true
          end
          else false
        in
        if not lp_cut then begin
          let j = ctx.a.(i) in
          let constr =
            if i > 0 && identical ctx.a.(i - 1) j then prev else Free
          in
          (match constr with
          | Skipped -> ()
          | Free | Placed_at _ ->
              let floor_h = match constr with Placed_at h -> h | _ -> 0 in
              List.iter
                (fun p ->
                  if
                    p >= floor_h && p <= ctx.slack.(i)
                    && not (List.exists (conflicts j p) placed)
                  then
                    branch ctx (i + 1) ((j, p) :: placed)
                      (w +. j.Task.weight)
                      (depth + 1) (Placed_at p))
                ctx.candidates);
          branch ctx (i + 1) placed w (depth + 1) Skipped
        end
      end
    end
  end

(* ---------- incumbent ---------- *)

(* Greedy gravity dive: walk the tasks in density order, dropping each to
   its lowest free position if any.  Cheap, feasible by construction, and
   usually within a few percent — a strong initial lower bound. *)
let gravity_incumbent path a =
  Array.fold_left
    (fun placed j ->
      match Core.Gravity.lowest_free_position path placed j with
      | Some h -> (j, h) :: placed
      | None -> placed)
    [] a

(* ---------- frontier fan-out ---------- *)

type node = { n_i : int; n_placed : Core.Solution.sap; n_w : float; n_prev : prev_choice }

(* Expand the shallowest open node breadth-first until there is enough
   independent work to feed the workers.  Children are emitted in the same
   order the sequential search would visit them, so with one worker the
   exploration order (and therefore the node count) matches sequential
   search modulo incumbent timing. *)
let expand_frontier ctx target =
  let n = Array.length ctx.a in
  let rec grow frontier =
    if List.length frontier >= target then frontier
    else
      match
        List.partition (fun nd -> nd.n_i < n) frontier |> function
        | [], _ -> None
        | open_ :: rest_open, closed -> Some (open_, rest_open @ closed)
      with
      | None -> frontier
      | Some (nd, rest) ->
          let j = ctx.a.(nd.n_i) in
          let constr =
            if nd.n_i > 0 && identical ctx.a.(nd.n_i - 1) j then nd.n_prev
            else Free
          in
          let children = ref [] in
          (match constr with
          | Skipped -> ()
          | Free | Placed_at _ ->
              let floor_h = match constr with Placed_at h -> h | _ -> 0 in
              List.iter
                (fun p ->
                  if
                    p >= floor_h && p <= ctx.slack.(nd.n_i)
                    && not (List.exists (conflicts j p) nd.n_placed)
                  then
                    children :=
                      {
                        n_i = nd.n_i + 1;
                        n_placed = (j, p) :: nd.n_placed;
                        n_w = nd.n_w +. j.Task.weight;
                        n_prev = Placed_at p;
                      }
                      :: !children)
                ctx.candidates);
          let skip =
            { n_i = nd.n_i + 1; n_placed = nd.n_placed; n_w = nd.n_w;
              n_prev = Skipped }
          in
          let children = List.rev (skip :: !children) in
          List.iter (fun c -> update_best ctx.shared c.n_w c.n_placed) children;
          grow (rest @ children)
  in
  grow [ { n_i = 0; n_placed = []; n_w = 0.0; n_prev = Free } ]

(* ---------- driver ---------- *)

let solve ?(max_nodes = default_max_nodes) ?(lp_depth = 10)
    ?(lp_min_remaining = 5) ?jobs path ts =
  Obs.Trace.with_span "lab.bb.solve"
    ~attrs:[ ("tasks", string_of_int (List.length ts)) ]
  @@ fun () ->
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of path j) ts
  in
  let a = Array.of_list ts in
  Array.sort search_order a;
  let n = Array.length a in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. a.(i).Task.weight
  done;
  let slack = Array.map (fun j -> Path.bottleneck_of path j - j.Task.demand) a in
  let max_slack = Array.fold_left max 0 (if n = 0 then [| 0 |] else slack) in
  let demands = List.map (fun (j : Task.t) -> j.Task.demand) ts in
  let candidates = Util.Subset_sum.distinct_sums ~bound:(max_slack + 1) demands in
  let incumbent = gravity_incumbent path a in
  let shared =
    {
      best = Atomic.make (Core.Solution.sap_weight incumbent, incumbent);
      spent = Atomic.make 0;
      max_nodes;
      exhausted = Atomic.make false;
    }
  in
  let root_lp = Lp.Ufpp_lp.upper_bound path ts in
  let mk_ctx () =
    {
      path;
      a;
      suffix;
      candidates;
      slack;
      shared;
      memo = Hashtbl.create 4096;
      memo_cap = 1_000_000;
      lp_depth;
      lp_min_remaining;
    }
  in
  let run_subtree nd =
    let ctx = mk_ctx () in
    match branch ctx nd.n_i nd.n_placed nd.n_w 0 nd.n_prev with
    | () -> ()
    | exception Out_of_budget -> ()
  in
  (match jobs with
  | Some jobs when jobs > 1 ->
      let frontier = expand_frontier (mk_ctx ()) (4 * jobs) in
      ignore (Util.Parallel.map ~jobs run_subtree frontier)
  | _ -> run_subtree { n_i = 0; n_placed = []; n_w = 0.0; n_prev = Free });
  let value, solution = Atomic.get shared.best in
  let optimal = not (Atomic.get shared.exhausted) in
  let upper_bound = if optimal then value else Float.min root_lp suffix.(0) in
  Obs.Trace.add_attr "nodes" (string_of_int (Atomic.get shared.spent));
  Obs.Trace.add_attr "optimal" (string_of_bool optimal);
  {
    solution = Core.Solution.sort_by_id solution;
    value;
    upper_bound;
    optimal;
    nodes = Atomic.get shared.spent;
  }

let value path ts = (solve path ts).value

(* ---------- rings ---------- *)

module Ring = Core.Ring

type ring_outcome = {
  ring_solution : Ring.solution;
  ring_value : float;
  ring_optimal : bool;
  ring_nodes : int;
}

(* Branch and bound over (subset, routing, heights): Ring_brute's search
   strengthened with density ordering, a greedy incumbent, the dominated-
   state memo and a node budget.  No LP here — the ring has no capacity
   relaxation wired up — so the optimistic bound is the weight suffix. *)
let solve_ring ?(max_nodes = default_max_nodes) (r : Ring.t) =
  let m = Ring.num_edges r in
  let caps = r.Ring.capacities in
  let tasks = Array.copy r.Ring.tasks in
  let span_of (t : Ring.task) dir =
    List.length (Ring.edges_of_route ~m ~src:t.Ring.src ~dst:t.Ring.dst dir)
  in
  let rdensity (t : Ring.task) =
    let shortest = min (span_of t Ring.Cw) (span_of t Ring.Ccw) in
    t.Ring.weight /. float_of_int (t.Ring.demand * max 1 shortest)
  in
  Array.sort
    (fun (a : Ring.task) b ->
      let c = Float.compare (rdensity b) (rdensity a) in
      if c <> 0 then c
      else
        let c = Int.compare a.Ring.src b.Ring.src in
        if c <> 0 then c
        else
          let c = Int.compare a.Ring.dst b.Ring.dst in
          if c <> 0 then c
          else
            let c = Int.compare a.Ring.demand b.Ring.demand in
            if c <> 0 then c else Int.compare a.Ring.id b.Ring.id)
    tasks;
  let n = Array.length tasks in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. tasks.(i).Ring.weight
  done;
  let bound = Array.fold_left max 0 caps in
  let demands = Array.to_list tasks |> List.map (fun (t : Ring.task) -> t.Ring.demand) in
  let candidates = Util.Subset_sum.distinct_sums ~bound demands in
  let conflicts (edges : int list) p d (edges', p', d') =
    p < p' + d' && p' < p + d
    && List.exists (fun e -> List.mem e edges') edges
  in
  let placeable edges p d placed =
    List.for_all (fun e -> p + d <= caps.(e)) edges
    && not (List.exists (conflicts edges p d) placed)
  in
  let identical (a : Ring.task) (b : Ring.task) =
    a.Ring.src = b.Ring.src && a.Ring.dst = b.Ring.dst
    && a.Ring.demand = b.Ring.demand
    && Float.equal a.Ring.weight b.Ring.weight
  in
  let dir_rank = function Ring.Cw -> 0 | Ring.Ccw -> 1 in
  let memo : (string, float) Hashtbl.t = Hashtbl.create 4096 in
  let memo_cap = 1_000_000 in
  let signature i placed =
    let per_edge = Array.make m [] in
    List.iter
      (fun (edges, p, d) ->
        List.iter (fun e -> per_edge.(e) <- (p, p + d) :: per_edge.(e)) edges)
      placed;
    let buf = Buffer.create 64 in
    Buffer.add_string buf (string_of_int i);
    Array.iteri
      (fun e ivs ->
        match List.sort compare ivs with
        | [] -> ()
        | ivs ->
            Buffer.add_char buf '|';
            Buffer.add_string buf (string_of_int e);
            List.iter
              (fun (lo, hi) ->
                Buffer.add_char buf ':';
                Buffer.add_string buf (string_of_int lo);
                Buffer.add_char buf '-';
                Buffer.add_string buf (string_of_int hi))
              ivs)
      per_edge;
    Buffer.contents buf
  in
  let best = ref [] in
  let best_w = ref 0.0 in
  (* Greedy incumbent: tasks in density order, each dropped at the lowest
     candidate position over whichever route admits the lower one. *)
  let greedy_occ = ref [] in
  Array.iter
    (fun (tk : Ring.task) ->
      let try_dir dir =
        let edges = Ring.edges_of_route ~m ~src:tk.Ring.src ~dst:tk.Ring.dst dir in
        let rec first = function
          | [] -> None
          | p :: rest ->
              if placeable edges p tk.Ring.demand !greedy_occ then
                Some (p, dir, edges)
              else first rest
        in
        first candidates
      in
      let choice =
        match (try_dir Ring.Cw, try_dir Ring.Ccw) with
        | (Some _ as c), None | None, (Some _ as c) -> c
        | (Some (p1, _, _) as c1), (Some (p2, _, _) as c2) ->
            if p1 <= p2 then c1 else c2
        | None, None -> None
      in
      match choice with
      | Some (p, dir, edges) ->
          best := (tk, p, dir) :: !best;
          best_w := !best_w +. tk.Ring.weight;
          greedy_occ := (edges, p, tk.Ring.demand) :: !greedy_occ
      | None -> ())
    tasks;
  let nodes = ref 0 in
  let exhausted = ref false in
  let exception Budget in
  let rec branch i placed sol w prev =
    incr nodes;
    Obs.Metrics.incr c_nodes;
    if !nodes > max_nodes then begin
      if not !exhausted then begin
        exhausted := true;
        Obs.Metrics.incr c_budget_exhausted
      end;
      raise Budget
    end;
    if w > !best_w then begin
      best_w := w;
      best := sol
    end;
    if i < n && w +. suffix.(i) > !best_w +. 1e-9 then begin
      let key = signature i placed in
      let dominated =
        match Hashtbl.find_opt memo key with
        | Some w' when w' >= w -. 1e-12 ->
            Obs.Metrics.incr c_memo_cuts;
            true
        | _ ->
            if Hashtbl.length memo < memo_cap then Hashtbl.replace memo key w;
            false
      in
      if not dominated then begin
        let tk = tasks.(i) in
        let constr = if i > 0 && identical tasks.(i - 1) tk then prev else `Free in
        (match constr with
        | `Skipped -> ()
        | `Free | `Chose _ ->
            let admissible (dir, p) =
              match constr with
              | `Chose (d0, p0) ->
                  dir_rank d0 < dir_rank dir
                  || (dir_rank d0 = dir_rank dir && p0 <= p)
              | _ -> true
            in
            let try_route dir =
              let edges =
                Ring.edges_of_route ~m ~src:tk.Ring.src ~dst:tk.Ring.dst dir
              in
              List.iter
                (fun p ->
                  if admissible (dir, p) && placeable edges p tk.Ring.demand placed
                  then
                    branch (i + 1)
                      ((edges, p, tk.Ring.demand) :: placed)
                      ((tk, p, dir) :: sol)
                      (w +. tk.Ring.weight)
                      (`Chose (dir, p)))
                candidates
            in
            try_route Ring.Cw;
            try_route Ring.Ccw);
        branch (i + 1) placed sol w `Skipped
      end
    end
  in
  (match branch 0 [] [] 0.0 `Free with () -> () | exception Budget -> ());
  {
    ring_solution = !best;
    ring_value = Ring.solution_weight !best;
    ring_optimal = not !exhausted;
    ring_nodes = !nodes;
  }
