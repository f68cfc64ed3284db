let m_solves = Obs.Metrics.counter "simplex.solves"

let m_iterations = Obs.Metrics.counter "simplex.iterations"

(* Strongly feasible trees cannot cycle, so no anti-cycling rule ever
   activates; the counter stays registered so the stats schema keeps it. *)
let _ = Obs.Metrics.counter "simplex.bland_activations"

let m_bound_flips = Obs.Metrics.counter "simplex.bound_flips"

let m_cells = Obs.Metrics.counter "simplex.pivots_cells_touched"

let m_warm_restarts = Obs.Metrics.counter "simplex.warm_restarts"

let m_warm_saved = Obs.Metrics.counter "simplex.warm_pivots_saved"

let m_warm_fallbacks = Obs.Metrics.counter "simplex.warm_fallbacks"

let h_row_nnz = Obs.Metrics.histogram "simplex.row_nnz"

type basis = {
  tree_cols : int array;
  tree_edges : int array;
  upper_cols : int array;
}

type result = {
  value : float;
  x : float array;
  basis : basis;
}

let eps = 1e-9

exception Infeasible_tree

exception Stalled

(* Work across the attempts of one solve. *)
type work = { mutable iters : int; mutable flips : int; mutable cells : int }

(* One solve from the tree [seed] describes.  Arc [a < n] is column [a],
   [s_a -> t_a + 1] with capacity [d_a]; arc [n + e] is the slack of edge
   [e], [e -> e + 1], uncapacitated.  Node [m] is the root.  A nonbasic
   arc sits at 0 or, if [at_upper], at its capacity.  Reduced profits are
   kept on the x scale: arc [a] prices at [w_a - scale_a (pi_src - pi_dst)]
   with [scale] = [d] for a task and 1 for a slack, so a tree arc has
   [pi_src - pi_dst = w_a / scale_a].  Raises [Infeasible_tree] or
   [Stalled] for the caller to restart cold. *)
let attempt ~capacity (cols : Core.Task.t array) seed work =
  let n = Array.length cols and m = Array.length capacity in
  let na = n + m and nn = m + 1 and root = m in
  let src = Array.init na (fun a -> if a < n then cols.(a).Core.Task.first_edge else a - n) in
  let dst =
    Array.init na (fun a -> if a < n then cols.(a).Core.Task.last_edge + 1 else a - n + 1)
  in
  let cap =
    Array.init na (fun a ->
        if a < n then float_of_int cols.(a).Core.Task.demand else infinity)
  in
  let w = Array.init na (fun a -> if a < n then cols.(a).Core.Task.weight else 0.0) in
  let scale = Array.init na (fun a -> if a < n then cap.(a) else 1.0) in
  let flow = Array.make na 0.0 in
  let in_tree = Array.make na false and at_upper = Array.make na false in
  (* The tree: seed arcs that close no cycle, then slacks to reconnect. *)
  let uf = Array.init nn Fun.id in
  let rec find v = if uf.(v) = v then v else find uf.(v) in
  let link a =
    let x = find src.(a) and y = find dst.(a) in
    if x <> y then begin
      uf.(x) <- y;
      in_tree.(a) <- true
    end;
    x <> y
  in
  let saved =
    Array.fold_left
      (fun k c -> if c >= 0 && c < n && link c then k + 1 else k)
      0 seed.tree_cols
  in
  Array.iter (fun e -> if e >= 0 && e < m then ignore (link (n + e))) seed.tree_edges;
  for e = 0 to m - 1 do
    ignore (link (n + e))
  done;
  Array.iter
    (fun c ->
      if c >= 0 && c < n && not in_tree.(c) then begin
        at_upper.(c) <- true;
        flow.(c) <- cap.(c)
      end)
    seed.upper_cols;
  (* Hang the tree from the root, breadth first. *)
  let adj = Array.make nn [] in
  for a = na - 1 downto 0 do
    if in_tree.(a) then begin
      adj.(src.(a)) <- a :: adj.(src.(a));
      adj.(dst.(a)) <- a :: adj.(dst.(a))
    end
  done;
  let parent = Array.make nn (-1) and pred = Array.make nn (-1) in
  let order = Array.make nn root and tail = ref 1 in
  for i = 0 to nn - 1 do
    let v = order.(i) in
    List.iter
      (fun a ->
        if a <> pred.(v) then begin
          let u = if src.(a) = v then dst.(a) else src.(a) in
          parent.(u) <- v;
          pred.(u) <- a;
          order.(!tail) <- u;
          incr tail
        end)
      adj.(v)
  done;
  (* Tree flows, leaf-up: each node's pred arc carries its excess away. *)
  let excess =
    Array.init nn (fun v ->
        (if v < m then capacity.(v) else 0.0) -. if v > 0 then capacity.(v - 1) else 0.0)
  in
  for a = 0 to n - 1 do
    if at_upper.(a) then begin
      excess.(src.(a)) <- excess.(src.(a)) -. cap.(a);
      excess.(dst.(a)) <- excess.(dst.(a)) +. cap.(a)
    end
  done;
  for i = nn - 1 downto 1 do
    let v = order.(i) in
    let a = pred.(v) in
    let f = if src.(a) = v then excess.(v) else -.excess.(v) in
    if f < -.eps || f > cap.(a) +. eps then raise Infeasible_tree;
    flow.(a) <- Float.min cap.(a) (Float.max 0.0 f);
    excess.(parent.(v)) <- excess.(parent.(v)) +. excess.(v)
  done;
  work.cells <- work.cells + nn;
  (* Potentials and depths from the parent pointers: climb to a node
     already refreshed this round, then fill the path back down. *)
  let pi = Array.make nn 0.0 and depth = Array.make nn 0 in
  let stamp = Array.make nn 0 and round = ref 0 and stack = Array.make nn 0 in
  let refresh () =
    incr round;
    stamp.(root) <- !round;
    for v = 0 to nn - 1 do
      let k = ref 0 and u = ref v in
      while stamp.(!u) <> !round do
        stack.(!k) <- !u;
        incr k;
        u := parent.(!u)
      done;
      for i = !k - 1 downto 0 do
        let x = stack.(i) and a = pred.(stack.(i)) in
        let p = parent.(x) and unit = w.(a) /. scale.(a) in
        pi.(x) <- (if src.(a) = x then pi.(p) +. unit else pi.(p) -. unit);
        depth.(x) <- depth.(p) + 1;
        stamp.(x) <- !round
      done
    done;
    work.cells <- work.cells + nn
  in
  refresh ();
  (* The cycle of entering arc [a] is oriented so flow grows along [a]
     from [first] to [second]; it runs down from the apex to [first] and
     up from [second] to the apex.  [up] says which side a node is on:
     the tree arc above [x] gains flow where the walk follows it. *)
  let forward x ~up = (src.(pred.(x)) = x) = up in
  let pivot a =
    let first, second = if at_upper.(a) then (dst.(a), src.(a)) else (src.(a), dst.(a)) in
    let residual x ~up =
      let b = pred.(x) in
      if forward x ~up then cap.(b) -. flow.(b) else flow.(b)
    in
    (* Climb to the apex.  The last blocking arc from the apex is the
       lowest one on the down side, the entering arc, or the highest one
       on the up side, in that order of preference from last to first. *)
    let d1 = ref infinity and y1 = ref (-1) and d2 = ref infinity and y2 = ref (-1) in
    let u = ref first and v = ref second in
    while !u <> !v do
      if depth.(!u) >= depth.(!v) then begin
        let r = residual !u ~up:false in
        if r < !d1 then begin
          d1 := r;
          y1 := !u
        end;
        u := parent.(!u)
      end
      else begin
        let r = residual !v ~up:true in
        if r <= !d2 then begin
          d2 := r;
          y2 := !v
        end;
        v := parent.(!v)
      end;
      work.cells <- work.cells + 1
    done;
    let apex = !u in
    let delta = Float.max 0.0 (Float.min cap.(a) (Float.min !d1 !d2)) in
    let leave =
      if !d2 <= delta then Some (true, !y2)
      else if cap.(a) <= delta then None
      else Some (false, !y1)
    in
    if delta > 0.0 then begin
      let push x ~up =
        let x = ref x in
        while !x <> apex do
          let b = pred.(!x) in
          flow.(b) <- (if forward !x ~up then flow.(b) +. delta else flow.(b) -. delta);
          x := parent.(!x);
          work.cells <- work.cells + 1
        done
      in
      push first ~up:false;
      push second ~up:true;
      flow.(a) <- (if at_upper.(a) then flow.(a) -. delta else flow.(a) +. delta)
    end;
    match leave with
    | None ->
        at_upper.(a) <- not at_upper.(a);
        flow.(a) <- (if at_upper.(a) then cap.(a) else 0.0);
        work.flips <- work.flips + 1
    | Some (up, y) ->
        let l = pred.(y) in
        let full = forward y ~up in
        in_tree.(l) <- false;
        at_upper.(l) <- full;
        flow.(l) <- (if full then cap.(l) else 0.0);
        in_tree.(a) <- true;
        at_upper.(a) <- false;
        (* Re-hang the cut-off subtree from [a]: reverse the parent
           pointers from the entering endpoint on [y]'s side up to [y]. *)
        let z, other = if up then (second, first) else (first, second) in
        let rec rehang x np arc =
          let op = parent.(x) and oa = pred.(x) in
          parent.(x) <- np;
          pred.(x) <- arc;
          work.cells <- work.cells + 1;
          if x <> y then rehang op x oa
        in
        rehang z other a;
        refresh ()
  in
  let max_iterations = 50 * (na + 1) in
  let rec loop iter =
    if iter > max_iterations then raise Stalled;
    let best = ref (-1) and best_r = ref eps in
    for a = 0 to na - 1 do
      if not in_tree.(a) then begin
        let r = w.(a) -. (scale.(a) *. (pi.(src.(a)) -. pi.(dst.(a)))) in
        let r = if at_upper.(a) then -.r else r in
        if r > !best_r then begin
          best := a;
          best_r := r
        end
      end
    done;
    work.cells <- work.cells + na;
    if !best >= 0 then begin
      pivot !best;
      work.iters <- work.iters + 1;
      loop (iter + 1)
    end
  in
  loop 0;
  let x = Array.init n (fun j -> flow.(j) /. cap.(j)) in
  let value = ref 0.0 in
  Array.iteri (fun j xj -> value := !value +. (w.(j) *. xj)) x;
  let pick len p = List.filter p (List.init len Fun.id) |> Array.of_list in
  let basis =
    {
      tree_cols = pick n (fun j -> in_tree.(j));
      tree_edges = pick m (fun e -> in_tree.(n + e));
      upper_cols = pick n (fun j -> at_upper.(j));
    }
  in
  ({ value = !value; x; basis }, saved)

let cold = { tree_cols = [||]; tree_edges = [||]; upper_cols = [||] }

let observe_row_nnz ~m (cols : Core.Task.t array) =
  let deg = Array.init (m + 1) (fun v -> (if v > 0 then 1 else 0) + if v < m then 1 else 0) in
  Array.iter
    (fun (j : Core.Task.t) ->
      deg.(j.Core.Task.first_edge) <- deg.(j.Core.Task.first_edge) + 1;
      deg.(j.Core.Task.last_edge + 1) <- deg.(j.Core.Task.last_edge + 1) + 1)
    cols;
  Array.iter (fun d -> Obs.Metrics.observe h_row_nnz (float_of_int d)) deg

let solve ?warm ~capacity cols =
  let work = { iters = 0; flips = 0; cells = 0 } in
  let run_cold () =
    try fst (attempt ~capacity cols cold work) with
    | Stalled -> failwith "Net_simplex: iteration limit"
    | Infeasible_tree -> invalid_arg "Net_simplex: negative capacity"
  in
  let r =
    match warm with
    | None -> run_cold ()
    | Some seed -> (
        match attempt ~capacity cols seed work with
        | r, saved ->
            Obs.Metrics.incr m_warm_restarts;
            Obs.Metrics.add m_warm_saved saved;
            r
        | exception (Infeasible_tree | Stalled) ->
            Obs.Metrics.incr m_warm_fallbacks;
            run_cold ())
  in
  if Obs.Metrics.enabled () then observe_row_nnz ~m:(Array.length capacity) cols;
  Obs.Metrics.incr m_solves;
  Obs.Metrics.add m_iterations work.iters;
  Obs.Metrics.add m_bound_flips work.flips;
  Obs.Metrics.add m_cells work.cells;
  r
