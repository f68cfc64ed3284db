module Task = Core.Task
module Path = Core.Path
module Ring = Core.Ring

type 's outcome = {
  solution : 's;
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

(* ---------- the search's view of a task ---------- *)

(* A task as the search sees it: the caller's [item], and the routes it
   may take as edge arrays in preference order (one for a path task;
   clockwise, then counter-clockwise for a ring task).  [ends] are its
   endpoints, which keep interchangeable tasks adjacent in the order. *)
type 'a item = {
  item : 'a;
  id : int;
  weight : float;
  demand : int;
  ends : int * int;
  routes : int array array;
}

(* Weight density: value per unit of consumed area (demand x length of
   the shortest route).  Branching on dense tasks first makes the greedy
   dive a strong incumbent and the residual-weight suffix a tight
   optimistic bound.  Shape tie-breaks keep interchangeable tasks adjacent
   for the symmetry cut. *)
let density j =
  let shortest =
    Array.fold_left (fun s r -> min s (Array.length r)) max_int j.routes
  in
  j.weight /. float_of_int (j.demand * max 1 shortest)

let search_order x y =
  let c = Float.compare (density y) (density x) in
  if c <> 0 then c
  else
    let c = compare x.ends y.ends in
    if c <> 0 then c
    else
      let c = Int.compare x.demand y.demand in
      if c <> 0 then c
      else
        let c = Float.compare y.weight x.weight in
        if c <> 0 then c else Int.compare x.id y.id

let identical x y =
  x.ends = y.ends && x.demand = y.demand && Float.equal x.weight y.weight

(* ---------- the occupancy ---------- *)

(* Per edge, the occupied vertical intervals [lo, hi) in ascending order
   and their total load; the number of intervals over all edges; and an
   order-independent hash of every (edge, lo, hi), all kept current by
   place and unplace.  It answers the conflict test, gives the residual
   capacities, and keys the memo. *)
type occupancy = {
  ivs : (int * int) list array;
  load : int array;
  mutable count : int;
  mutable hash : int;
}

let mix e lo hi =
  let h = (((e * 0x9E3779B97F4A7C1) lxor lo) * 0x2545F4914F6CDD1D) lxor hi in
  let h = h * 0x27BB2EE687B0B0FD in
  h lxor (h lsr 29)

let empty_occupancy m =
  { ivs = Array.make m []; load = Array.make m 0; count = 0; hash = 0 }

let rec insert lo hi = function
  | ((l, _) as iv) :: rest when l < lo -> iv :: insert lo hi rest
  | ivs -> (lo, hi) :: ivs

let rec delete lo = function
  | ((l, _) as iv) :: rest -> if l = lo then rest else iv :: delete lo rest
  | [] -> []

let place occ j r p =
  let hi = p + j.demand in
  let route = j.routes.(r) in
  Array.iter
    (fun e ->
      occ.ivs.(e) <- insert p hi occ.ivs.(e);
      occ.load.(e) <- occ.load.(e) + j.demand;
      occ.hash <- occ.hash + mix e p hi)
    route;
  occ.count <- occ.count + Array.length route

let unplace occ j r p =
  let hi = p + j.demand in
  let route = j.routes.(r) in
  Array.iter
    (fun e ->
      occ.ivs.(e) <- delete p occ.ivs.(e);
      occ.load.(e) <- occ.load.(e) - j.demand;
      occ.hash <- occ.hash - mix e p hi)
    route;
  occ.count <- occ.count - Array.length route

let rec clear lo hi = function
  | (l, h) :: rest -> l >= hi || (h <= lo && clear lo hi rest)
  | [] -> true

let free occ route lo hi = Array.for_all (fun e -> clear lo hi occ.ivs.(e)) route

let rec holds lo hi = function
  | (l, h) :: rest -> (l = lo && h = hi) || (l < lo && holds lo hi rest)
  | [] -> false

(* [placed] occupies exactly [occ]: every interval it places is in [occ],
   and the two hold as many intervals (each edge's are disjoint). *)
let occupies occ placed count =
  count = occ.count
  && List.for_all
       (fun (j, r, p) ->
         Array.for_all (fun e -> holds p (p + j.demand) occ.ivs.(e)) j.routes.(r))
       placed

(* Memo entries, bucketed by occupancy hash: states agreeing on (next
   task index, occupancy) have identical feasible completions over the
   identical remaining tasks, so the lighter one is dominated — this also
   collapses permutations of interchangeable placements that the symmetry
   cut cannot see.  An entry keeps the placements that made its occupancy
   (a list the search shares anyway) and is compared in full against the
   current occupancy, so a hash collision never cuts. *)
type 'a entry = {
  e_next : int;
  e_placed : ('a item * int * int) list;
  e_count : int;
  mutable e_weight : float;
}

module Memo = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash h = h land max_int
end)

let memo_cap = 1_000_000

(* ---------- shared search state (one search, possibly many domains) ---- *)

(* The incumbent is shared through an Atomic holding an immutable pair;
   CAS-loop updates keep concurrent subtree workers lost-update-free.  The
   node counter doubles as the budget: it only ever grows, so once it
   crosses [max_nodes] every worker winds down deterministically. *)
type 'a shared = {
  best : (float * ('a item * int * int) list) Atomic.t;
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

type 'a ctx = {
  a : 'a item array;  (* search order *)
  capacities : int array;
  suffix : float array;
  candidates : int list;  (* gravity heights: bounded subset sums, ascending *)
  slack : int array array;  (* slack.(i).(r): max feasible height on route r *)
  bound : (residual:int array -> 'a list -> float) option;
  shared : 'a shared;
  memo : 'a entry Memo.t;
}

(* The optional bound is priced at depths < [lp_depth] with at least
   [lp_min_remaining] tasks left. *)
let lp_depth = 10

let lp_min_remaining = 5

type prev_choice = Free | Skipped | Placed_at of int * int  (* route, height *)

(* Calls [f r p] for each placement child of the node at task [i] — routes
   in order, heights ascending — that fits, is free in [occ] and survives
   the symmetry cut: a task identical to its predecessor takes no
   placement after a skip and none below the predecessor's (route,
   height).  The skip child comes after these; the caller takes it. *)
let iter_placements ctx occ i prev f =
  let j = ctx.a.(i) in
  let constr = if i > 0 && identical ctx.a.(i - 1) j then prev else Free in
  let heights r route lowest =
    let slack = ctx.slack.(i).(r) in
    let rec go = function
      | p :: rest when p <= slack ->
          if p >= lowest && free occ route p (p + j.demand) then f r p;
          go rest
      | _ -> ()
    in
    go ctx.candidates
  in
  match constr with
  | Skipped -> ()
  | Free -> Array.iteri (fun r route -> heights r route 0) j.routes
  | Placed_at (r0, p0) ->
      Array.iteri
        (fun r route ->
          if r = r0 then heights r route p0 else if r > r0 then heights r route 0)
        j.routes

let memo_cut ctx occ i placed w =
  let same e = e.e_next = i && occupies occ e.e_placed e.e_count in
  match List.find_opt same (Memo.find_all ctx.memo occ.hash) with
  | Some e when e.e_weight >= w -. 1e-12 ->
      Obs.Metrics.incr c_memo_cuts;
      true
  | found ->
      if Memo.length ctx.memo < memo_cap then begin
        match found with
        | Some e -> e.e_weight <- w
        | None ->
            Memo.add ctx.memo occ.hash
              { e_next = i; e_placed = placed; e_count = occ.count; e_weight = w }
      end;
      false

let bound_cut ctx occ i w depth =
  let n = Array.length ctx.a in
  match ctx.bound with
  | Some bound when depth < lp_depth && n - i >= lp_min_remaining ->
      let residual = Array.mapi (fun e c -> c - occ.load.(e)) ctx.capacities in
      let rest = List.init (n - i) (fun k -> ctx.a.(i + k).item) in
      let ub = bound ~residual rest in
      let bw, _ = Atomic.get ctx.shared.best in
      w +. ub <= bw +. 1e-9
      && begin
           Obs.Metrics.incr c_lp_cuts;
           true
         end
  | _ -> false

(* Depth-first search from task [i] with [placed] in [occ].  [depth]
   counts branching decisions on the current path (the frontier hand-off
   resets it) and gates the bound to the top of the tree where it pays. *)
let rec branch ctx occ i placed w depth prev =
  charge_node ctx.shared;
  update_best ctx.shared w placed;
  if i < Array.length ctx.a then begin
    let bw, _ = Atomic.get ctx.shared.best in
    if
      w +. ctx.suffix.(i) > bw +. 1e-9
      && (not (memo_cut ctx occ i placed w))
      && not (bound_cut ctx occ i w depth)
    then begin
      let j = ctx.a.(i) in
      iter_placements ctx occ i prev (fun r p ->
          place occ j r p;
          branch ctx occ (i + 1) ((j, r, p) :: placed) (w +. j.weight) (depth + 1)
            (Placed_at (r, p));
          unplace occ j r p);
      branch ctx occ (i + 1) placed w (depth + 1) Skipped
    end
  end

let occupancy_of ctx placed =
  let occ = empty_occupancy (Array.length ctx.capacities) in
  List.iter (fun (j, r, p) -> place occ j r p) placed;
  occ

(* ---------- incumbent ---------- *)

(* Greedy gravity dive: walk the tasks in search order, dropping each at
   its lowest free candidate height over whichever route admits the lower
   one (ties to the earlier route).  Cheap, feasible by construction, and
   usually within a few percent — a strong initial lower bound. *)
let greedy_incumbent ctx =
  let occ = occupancy_of ctx [] in
  let placed = ref [] in
  Array.iteri
    (fun i j ->
      let lowest = ref None in
      iter_placements ctx occ i Free (fun r p ->
          match !lowest with
          | Some (_, p0) when p0 <= p -> ()
          | _ -> lowest := Some (r, p));
      Option.iter
        (fun (r, p) ->
          place occ j r p;
          placed := (j, r, p) :: !placed)
        !lowest)
    ctx.a;
  !placed

(* ---------- frontier fan-out ---------- *)

type 'a node = {
  n_i : int;
  n_placed : ('a item * int * int) list;
  n_w : float;
  n_prev : prev_choice;
}

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
      match List.partition (fun nd -> nd.n_i < n) frontier with
      | [], _ -> frontier
      | nd :: rest_open, closed ->
          let j = ctx.a.(nd.n_i) in
          let children = ref [] in
          iter_placements ctx (occupancy_of ctx nd.n_placed) nd.n_i nd.n_prev
            (fun r p ->
              children :=
                {
                  n_i = nd.n_i + 1;
                  n_placed = (j, r, p) :: nd.n_placed;
                  n_w = nd.n_w +. j.weight;
                  n_prev = Placed_at (r, p);
                }
                :: !children);
          let skip = { nd with n_i = nd.n_i + 1; n_prev = Skipped } in
          let children = List.rev (skip :: !children) in
          List.iter (fun c -> update_best ctx.shared c.n_w c.n_placed) children;
          grow (rest_open @ closed @ children)
  in
  grow [ { n_i = 0; n_placed = []; n_w = 0.0; n_prev = Free } ]

(* ---------- the one search ---------- *)

(* Branch and bound over (subset, route, height) for [items] on edges with
   [capacities].  [bound ~residual rest], when given, bounds the weight
   the remaining tasks [rest] can add under the residual capacities.  The
   solution lists (item, route index, height), latest placement first;
   [upper_bound] is [value] when the search closed and the total weight
   otherwise. *)
let search ?(max_nodes = default_max_nodes) ?jobs ?bound ~capacities items =
  let a = Array.of_list items in
  Array.sort search_order a;
  let n = Array.length a in
  let suffix = Array.make (n + 1) 0.0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) +. a.(i).weight
  done;
  let slack =
    Array.map
      (fun j ->
        Array.map
          (Array.fold_left (fun s e -> min s (capacities.(e) - j.demand)) max_int)
          j.routes)
      a
  in
  let max_slack = Array.fold_left (Array.fold_left max) 0 slack in
  let candidates =
    Util.Subset_sum.distinct_sums ~bound:(max_slack + 1)
      (List.map (fun j -> j.demand) items)
  in
  let shared =
    {
      best = Atomic.make (0.0, []);
      spent = Atomic.make 0;
      max_nodes;
      exhausted = Atomic.make false;
    }
  in
  let mk_ctx () =
    { a; capacities; suffix; candidates; slack; bound; shared; memo = Memo.create 4096 }
  in
  let incumbent = greedy_incumbent (mk_ctx ()) in
  Atomic.set shared.best
    (List.fold_left (fun acc (j, _, _) -> acc +. j.weight) 0.0 incumbent, incumbent);
  let run_subtree nd =
    let ctx = mk_ctx () in
    let occ = occupancy_of ctx nd.n_placed in
    match branch ctx occ nd.n_i nd.n_placed nd.n_w 0 nd.n_prev with
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
  {
    solution = List.map (fun (j, r, p) -> (j.item, r, p)) solution;
    value;
    upper_bound = (if optimal then value else suffix.(0));
    optimal;
    nodes = Atomic.get shared.spent;
  }

(* ---------- paths ---------- *)

let solve ?max_nodes ?jobs path ts =
  Obs.Trace.with_span "lab.bb.solve"
    ~attrs:[ ("tasks", string_of_int (List.length ts)) ]
  @@ fun () ->
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of path j) ts
  in
  let root_lp = Lp.Ufpp_lp.upper_bound path ts in
  let item (j : Task.t) =
    {
      item = j;
      id = j.Task.id;
      weight = j.Task.weight;
      demand = j.Task.demand;
      ends = (j.Task.first_edge, j.Task.last_edge);
      routes = [| Array.init (Task.span j) (fun k -> j.Task.first_edge + k) |];
    }
  in
  let out =
    search ?max_nodes ?jobs
      ~bound:(fun ~residual rest ->
        Lp.Ufpp_lp.upper_bound_residual path ~residual rest)
      ~capacities:(Path.capacities path) (List.map item ts)
  in
  Obs.Trace.add_attr "nodes" (string_of_int out.nodes);
  Obs.Trace.add_attr "optimal" (string_of_bool out.optimal);
  {
    out with
    solution =
      Core.Solution.sort_by_id (List.map (fun (j, _, h) -> (j, h)) out.solution);
    upper_bound =
      (if out.optimal then out.value else Float.min root_lp out.upper_bound);
  }

let value path ts = (solve path ts).value

(* ---------- rings ---------- *)

(* No LP here — the ring has no capacity relaxation wired up — so the
   optimistic bound is the weight suffix. *)
let solve_ring ?max_nodes (r : Ring.t) =
  let m = Ring.num_edges r in
  let item (t : Ring.task) =
    let route dir =
      Array.of_list (Ring.edges_of_route ~m ~src:t.Ring.src ~dst:t.Ring.dst dir)
    in
    {
      item = t;
      id = t.Ring.id;
      weight = t.Ring.weight;
      demand = t.Ring.demand;
      ends = (t.Ring.src, t.Ring.dst);
      routes = [| route Ring.Cw; route Ring.Ccw |];
    }
  in
  let out =
    search ?max_nodes ~capacities:r.Ring.capacities
      (Array.to_list (Array.map item r.Ring.tasks))
  in
  let solution =
    List.map
      (fun (t, route, p) -> (t, p, if route = 0 then Ring.Cw else Ring.Ccw))
      out.solution
  in
  let value = Ring.solution_weight solution in
  let total =
    Array.fold_left (fun acc (t : Ring.task) -> acc +. t.Ring.weight) 0.0 r.Ring.tasks
  in
  { out with solution; value; upper_bound = (if out.optimal then value else total) }
