module Task = Core.Task
module Path = Core.Path

let case = Helpers.case

(* ---------- Simplex on hand-built LPs ---------- *)

let simplex_known_2d () =
  (* max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 -> opt 36 at (2,6). *)
  let problem =
    {
      Lp.Simplex.objective = [| 3.0; 5.0 |];
      rows =
        [
          ([| 1.0; 0.0 |], 4.0);
          ([| 0.0; 2.0 |], 12.0);
          ([| 3.0; 2.0 |], 18.0);
        ];
    }
  in
  match Lp.Simplex.maximize problem with
  | Lp.Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check bool) "value 36" true (Helpers.close_enough value 36.0);
      Alcotest.(check bool) "x=2" true (Helpers.close_enough solution.(0) 2.0);
      Alcotest.(check bool) "y=6" true (Helpers.close_enough solution.(1) 6.0)
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let simplex_degenerate () =
  (* Degenerate vertex: redundant constraints through the optimum. *)
  let problem =
    {
      Lp.Simplex.objective = [| 1.0; 1.0 |];
      rows =
        [
          ([| 1.0; 0.0 |], 1.0);
          ([| 0.0; 1.0 |], 1.0);
          ([| 1.0; 1.0 |], 2.0);
          ([| 2.0; 2.0 |], 4.0);
        ];
    }
  in
  match Lp.Simplex.maximize problem with
  | Lp.Simplex.Optimal { value; _ } ->
      Alcotest.(check bool) "value 2" true (Helpers.close_enough value 2.0)
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let simplex_unbounded () =
  let problem =
    { Lp.Simplex.objective = [| 1.0; 0.0 |]; rows = [ ([| 0.0; 1.0 |], 1.0) ] }
  in
  match Lp.Simplex.maximize problem with
  | Lp.Simplex.Unbounded -> ()
  | Lp.Simplex.Optimal _ -> Alcotest.fail "should be unbounded"

let simplex_rejects_negative_rhs () =
  Alcotest.check_raises "negative rhs" (Invalid_argument "Simplex: negative rhs")
    (fun () ->
      ignore
        (Lp.Simplex.maximize
           { Lp.Simplex.objective = [| 1.0 |]; rows = [ ([| 1.0 |], -1.0) ] }))

let simplex_solution_feasible =
  Helpers.seed_property ~count:50 "simplex output satisfies its constraints"
    (fun seed ->
      let g = Util.Prng.create seed in
      let n = 1 + Util.Prng.int g 5 in
      let r = 1 + Util.Prng.int g 6 in
      let objective = Array.init n (fun _ -> Util.Prng.float g 10.0) in
      let rows =
        List.init r (fun _ ->
            ( Array.init n (fun _ -> Util.Prng.float g 5.0),
              1.0 +. Util.Prng.float g 20.0 ))
      in
      (* Add box rows so the LP is bounded. *)
      let rows = rows @ List.init n (fun j -> Lp.Simplex.box_row ~n j 10.0) in
      match Lp.Simplex.maximize { Lp.Simplex.objective; rows } with
      | Lp.Simplex.Unbounded -> false
      | Lp.Simplex.Optimal { solution; value; _ } ->
          let tol = 1e-6 in
          Array.for_all (fun x -> x >= -.tol) solution
          && List.for_all
               (fun (a, b) ->
                 let lhs = ref 0.0 in
                 Array.iteri (fun i ai -> lhs := !lhs +. (ai *. solution.(i))) a;
                 !lhs <= b +. tol)
               rows
          &&
          let obj = ref 0.0 in
          Array.iteri (fun i c -> obj := !obj +. (c *. solution.(i))) objective;
          Helpers.close_enough ~tol:1e-6 !obj value)

(* ---------- sparse bounded core vs dense reference oracle ---------- *)

(* Random packing LPs (nonnegative coefficients, box rows keep them
   bounded): the sparse bounded-variable core and the retired dense
   tableau must find the same optimum. *)
let simplex_matches_reference_packing =
  Helpers.seed_property ~count:80 "sparse core = dense reference (packing LPs)"
    (fun seed ->
      let g = Util.Prng.create seed in
      let n = 1 + Util.Prng.int g 6 in
      let r = Util.Prng.int g 7 in
      let objective = Array.init n (fun _ -> Util.Prng.float g 10.0) in
      let rows =
        List.init r (fun _ ->
            ( Array.init n (fun _ ->
                  if Util.Prng.bernoulli g 0.4 then 0.0
                  else Util.Prng.float g 5.0),
              Util.Prng.float g 20.0 ))
      in
      let rows =
        rows @ List.init n (fun j -> Lp.Simplex.box_row ~n j (Util.Prng.float g 8.0))
      in
      let p = { Lp.Simplex.objective; rows } in
      let q = { Simplex_reference.objective; rows } in
      match (Lp.Simplex.maximize p, Simplex_reference.maximize q) with
      | Lp.Simplex.Optimal { value = v; solution; _ },
        Simplex_reference.Optimal { value = v'; _ } ->
          (* Same optimum, and the sparse core's point achieves it. *)
          Helpers.close_enough ~tol:1e-6 v v'
          &&
          let obj = ref 0.0 in
          Array.iteri (fun i c -> obj := !obj +. (c *. solution.(i))) objective;
          Helpers.close_enough ~tol:1e-6 !obj v
      | _ -> false)

(* Mixed-sign coefficients (rhs still >= 0, so the all-slack basis stays
   feasible): both solvers must agree on bounded vs unbounded, and on the
   value when bounded. *)
let simplex_matches_reference_mixed =
  Helpers.seed_property ~count:80 "sparse core = dense reference (mixed signs)"
    (fun seed ->
      let g = Util.Prng.create seed in
      let n = 1 + Util.Prng.int g 5 in
      let r = 1 + Util.Prng.int g 6 in
      let objective = Array.init n (fun _ -> Util.Prng.float g 10.0 -. 3.0) in
      let rows =
        List.init r (fun _ ->
            ( Array.init n (fun _ ->
                  if Util.Prng.bernoulli g 0.3 then 0.0
                  else Util.Prng.float g 6.0 -. 2.0),
              Util.Prng.float g 15.0 ))
      in
      let p = { Lp.Simplex.objective; rows } in
      let q = { Simplex_reference.objective; rows } in
      match (Lp.Simplex.maximize p, Simplex_reference.maximize q) with
      | Lp.Simplex.Unbounded, Simplex_reference.Unbounded -> true
      | Lp.Simplex.Optimal { value = v; _ }, Simplex_reference.Optimal { value = v'; _ }
        ->
          Helpers.close_enough ~tol:1e-6 v v'
      | _ -> false)

let simplex_bounded_pure_flips () =
  (* No rows at all: the optimum is every profitable variable at its upper
     bound, reached by bound flips alone (zero pivots). *)
  match
    Lp.Simplex.maximize_bounded ~objective:[| 2.0; -1.0; 3.0 |]
      ~upper:[| 4.0; 5.0; 0.5 |] ~rows:[] ()
  with
  | Lp.Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check bool) "value 9.5" true (Helpers.close_enough value 9.5);
      Alcotest.(check bool) "x0=4" true (Helpers.close_enough solution.(0) 4.0);
      Alcotest.(check bool) "x1=0" true (Helpers.close_enough solution.(1) 0.0);
      Alcotest.(check bool) "x2=0.5" true (Helpers.close_enough solution.(2) 0.5)
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let simplex_bounded_fixed_variable () =
  (* upper = 0 fixes a variable: it must never enter (this used to be the
     infinite-flip trap) and the rest solves normally. *)
  match
    Lp.Simplex.maximize_bounded ~objective:[| 5.0; 1.0 |] ~upper:[| 0.0; 1.0 |]
      ~rows:[ ([| 0; 1 |], [| 1.0; 1.0 |], 10.0) ] ()
  with
  | Lp.Simplex.Optimal { value; solution; _ } ->
      Alcotest.(check bool) "value 1" true (Helpers.close_enough value 1.0);
      Alcotest.(check bool) "x0 fixed" true (Helpers.close_enough solution.(0) 0.0)
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let simplex_bounded_unbounded () =
  match
    Lp.Simplex.maximize_bounded ~objective:[| 1.0; 1.0 |]
      ~upper:[| infinity; 2.0 |] ~rows:[ ([| 1 |], [| 1.0 |], 1.0) ] ()
  with
  | Lp.Simplex.Unbounded -> ()
  | Lp.Simplex.Optimal _ -> Alcotest.fail "x0 is unbounded"

let simplex_bounded_matches_boxed_reference =
  (* maximize_bounded with finite uppers = the same LP with explicit box
     rows handed to the dense reference. *)
  Helpers.seed_property ~count:60 "maximize_bounded = reference with box rows"
    (fun seed ->
      let g = Util.Prng.create seed in
      let n = 1 + Util.Prng.int g 5 in
      let r = 1 + Util.Prng.int g 5 in
      let objective = Array.init n (fun _ -> Util.Prng.float g 10.0) in
      let upper = Array.init n (fun _ -> Util.Prng.float g 3.0) in
      let dense_rows =
        List.init r (fun _ ->
            ( Array.init n (fun _ ->
                  if Util.Prng.bernoulli g 0.5 then 0.0
                  else 1.0 +. Util.Prng.float g 4.0),
              1.0 +. Util.Prng.float g 12.0 ))
      in
      let sparse_rows =
        List.map
          (fun (a, b) ->
            let cols =
              Array.to_list (Array.mapi (fun j x -> (j, x)) a)
              |> List.filter (fun (_, x) -> x <> 0.0)
            in
            ( Array.of_list (List.map fst cols),
              Array.of_list (List.map snd cols),
              b ))
          dense_rows
      in
      let reference =
        Simplex_reference.maximize
          {
            Simplex_reference.objective;
            rows =
              dense_rows
              @ List.init n (fun j -> Simplex_reference.box_row ~n j upper.(j));
          }
      in
      match
        (Lp.Simplex.maximize_bounded ~objective ~upper ~rows:sparse_rows (), reference)
      with
      | Lp.Simplex.Optimal { value = v; _ }, Simplex_reference.Optimal { value = v'; _ }
        ->
          Helpers.close_enough ~tol:1e-6 v v'
      | _ -> false)

(* ---------- UFPP LP ---------- *)

let ufpp_lp_upper_bounds_exact =
  Helpers.seed_property ~count:40 "LP >= exact UFPP >= exact SAP" (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let lp = Lp.Ufpp_lp.upper_bound path tasks in
      let ufpp = Ufpp.Exact_bb.value path tasks in
      let sap = Exact.Sap_brute.value path tasks in
      lp >= ufpp -. 1e-6 && ufpp >= sap -. 1e-9)

let ufpp_lp_saturates_single_edge () =
  (* One edge, two tasks: the LP is a fractional knapsack. *)
  let path = Path.create [| 10 |] in
  let mk id d w = Task.make ~id ~first_edge:0 ~last_edge:0 ~demand:d ~weight:w in
  let r = Lp.Ufpp_lp.solve path [ mk 0 6 6.0; mk 1 6 3.0 ] in
  (* x0 = 1, x1 = 4/6. *)
  Alcotest.(check bool) "value 8" true (Helpers.close_enough r.Lp.Ufpp_lp.value 8.0)

let ufpp_lp_unfit_task_zeroed () =
  let path = Path.create [| 4; 2 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:1 ~demand:3 ~weight:5.0 in
  let r = Lp.Ufpp_lp.solve path [ t ] in
  Alcotest.(check bool) "zero value" true (Helpers.close_enough r.Lp.Ufpp_lp.value 0.0);
  Alcotest.(check bool) "zero x" true (Helpers.close_enough r.Lp.Ufpp_lp.solution.(0) 0.0)

let ufpp_lp_scaled () =
  let path = Path.create [| 10 |] in
  let t = Task.make ~id:0 ~first_edge:0 ~last_edge:0 ~demand:10 ~weight:1.0 in
  let full = Lp.Ufpp_lp.solve path [ t ] in
  let half = Lp.Ufpp_lp.solve_scaled path ~scale:0.5 [ t ] in
  Alcotest.(check bool) "full takes task" true
    (Helpers.close_enough full.Lp.Ufpp_lp.value 1.0);
  Alcotest.(check bool) "half rejects (demand > scaled bottleneck)" true
    (Helpers.close_enough half.Lp.Ufpp_lp.value 0.0)

let ufpp_lp_matches_dense_reference =
  (* The sparse O(total span) row build + implicit bounds must price
     instances exactly like the historical dense construction (one dense
     row per used edge, explicit box rows, dense simplex). *)
  Helpers.seed_property ~count:40 "Ufpp_lp.solve = dense reference construction"
    (fun seed ->
      let path, tasks = Helpers.tiny_instance seed in
      let fits (j : Task.t) = j.Task.demand <= Path.bottleneck_of path j in
      let cols = List.filter fits tasks |> Array.of_list in
      let n = Array.length cols in
      let lp = Lp.Ufpp_lp.solve path tasks in
      if n = 0 then Helpers.close_enough lp.Lp.Ufpp_lp.value 0.0
      else begin
        let objective = Array.map (fun (j : Task.t) -> j.Task.weight) cols in
        let m = Path.num_edges path in
        let capacity_rows = ref [] in
        for e = m - 1 downto 0 do
          if Array.exists (fun j -> Task.uses j e) cols then begin
            let a =
              Array.map
                (fun (j : Task.t) ->
                  if Task.uses j e then float_of_int j.Task.demand else 0.0)
                cols
            in
            capacity_rows := (a, float_of_int (Path.capacity path e)) :: !capacity_rows
          end
        done;
        let rows =
          !capacity_rows @ List.init n (fun c -> Simplex_reference.box_row ~n c 1.0)
        in
        match Simplex_reference.maximize { Simplex_reference.objective; rows } with
        | Simplex_reference.Unbounded -> false
        | Simplex_reference.Optimal { value; _ } ->
            Helpers.close_enough ~tol:1e-6 lp.Lp.Ufpp_lp.value value
      end)

let ufpp_lp_integral_when_disjoint () =
  (* Disjoint tasks: LP optimum equals total weight. *)
  let path = Path.create [| 4; 4; 4; 4 |] in
  let mk id first last = Task.make ~id ~first_edge:first ~last_edge:last ~demand:3 ~weight:2.0 in
  let r = Lp.Ufpp_lp.solve path [ mk 0 0 1; mk 1 2 3 ] in
  Alcotest.(check bool) "value 4" true (Helpers.close_enough r.Lp.Ufpp_lp.value 4.0)

let ufpp_lp_warm_matches_cold =
  (* A warm-started re-solve after a task delta must reach the same LP
     optimum as a cold solve of the patched instance — a warm basis buys
     pivots, never a different answer.  Chains deltas so the basis handed
     forward is itself the product of a warm solve. *)
  Helpers.seed_property ~count:40 "warm-started re-solve = cold re-solve"
    (fun seed ->
      let prng = Util.Prng.create (seed + 1) in
      let path, tasks = Helpers.tiny_instance seed in
      let tasks = ref tasks in
      let next_id = ref 1000 in
      let warm = ref None in
      let ok = ref true in
      for _step = 1 to 5 do
        (match !tasks with
        | _ :: _ when Util.Prng.bool prng ->
            let ts = !tasks in
            let victim = List.nth ts (Util.Prng.int prng (List.length ts)) in
            tasks :=
              List.filter (fun (j : Task.t) -> j.Task.id <> victim.Task.id) ts
        | _ ->
            let edges = Path.num_edges path in
            let first_edge = Util.Prng.int prng edges in
            let last_edge =
              first_edge + Util.Prng.int prng (edges - first_edge)
            in
            let b = Path.bottleneck path ~first:first_edge ~last:last_edge in
            let demand = 1 + Util.Prng.int prng b in
            let weight = 1.0 +. Util.Prng.float prng 9.0 in
            let id = !next_id in
            incr next_id;
            tasks :=
              Task.make ~id ~first_edge ~last_edge ~demand ~weight :: !tasks);
        let r_warm, w =
          Lp.Ufpp_lp.solve_scaled_warm path ~scale:1.0 ?warm:!warm !tasks
        in
        warm := w;
        let r_cold = Lp.Ufpp_lp.solve_scaled path ~scale:1.0 !tasks in
        if
          not
            (Helpers.close_enough ~tol:1e-6 r_warm.Lp.Ufpp_lp.value
               r_cold.Lp.Ufpp_lp.value)
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          case "known 2d" simplex_known_2d;
          case "degenerate" simplex_degenerate;
          case "unbounded" simplex_unbounded;
          case "negative rhs" simplex_rejects_negative_rhs;
          simplex_solution_feasible;
        ] );
      ( "simplex vs reference",
        [
          simplex_matches_reference_packing;
          simplex_matches_reference_mixed;
          case "pure bound flips" simplex_bounded_pure_flips;
          case "fixed variable" simplex_bounded_fixed_variable;
          case "unbounded with bounds" simplex_bounded_unbounded;
          simplex_bounded_matches_boxed_reference;
        ] );
      ( "ufpp_lp",
        [
          ufpp_lp_upper_bounds_exact;
          case "fractional knapsack" ufpp_lp_saturates_single_edge;
          case "unfit task zeroed" ufpp_lp_unfit_task_zeroed;
          case "scaled" ufpp_lp_scaled;
          ufpp_lp_matches_dense_reference;
          case "integral disjoint" ufpp_lp_integral_when_disjoint;
          ufpp_lp_warm_matches_cold;
        ] );
    ]
