(* Experiments F1..F8: one per figure of the paper.  Each reconstructs the
   figure's object programmatically and machine-checks the claim the figure
   illustrates.  See EXPERIMENTS.md for the index. *)

module Task = Core.Task
module Path = Core.Path

let verdict name ok =
  Printf.printf "  [%s] %s\n" (if ok then "PASS" else "FAIL") name

(* F1 — Fig. 1(a),(b): UFPP-feasible task sets with no SAP realisation. *)
let f1 () =
  Bench_util.section "F1  Fig.1: UFPP feasibility does not imply SAP feasibility";
  let run label (path, tasks) =
    Bench_util.subsection label;
    Printf.printf "capacities: %s\n"
      (String.concat " " (Array.to_list (Path.capacities path) |> List.map string_of_int));
    List.iter (fun t -> Format.printf "  %a@." Task.pp t) tasks;
    let ufpp_ok = Result.is_ok (Core.Checker.ufpp_feasible path tasks) in
    let sap_none = Exact.Sap_brute.realizable path tasks = None in
    verdict "all tasks UFPP-feasible (loads fit)" ufpp_ok;
    verdict "no height assignment exists (exact search)" sap_none;
    let sap_opt = Exact.Sap_brute.value path tasks in
    let ufpp_opt = Ufpp.Exact_bb.value path tasks in
    Printf.printf "  weight gap: UFPP OPT = %.1f vs SAP OPT = %.1f\n" ufpp_opt sap_opt
  in
  run "Fig.1(a): capacities (1,2,1), two unit tasks" Gen.Paper_figures.fig1a;
  run "Fig.1(b): uniform capacity 4 (searched witness, cf. [18])"
    (Gen.Paper_figures.fig1b ~seed:3)

(* F2 — Fig. 2: delta-smallness depends on the bottleneck, not the edge. *)
let f2 () =
  Bench_util.section "F2  Fig.2: delta-small classification under two profiles";
  let table label (path, tasks) delta =
    Bench_util.subsection label;
    let rows =
      List.map
        (fun (j : Task.t) ->
          let b = Path.bottleneck_of path j in
          [
            string_of_int j.Task.id;
            Printf.sprintf "[%d,%d]" j.Task.first_edge j.Task.last_edge;
            string_of_int j.Task.demand;
            string_of_int b;
            Util.Table.float_cell (float_of_int j.Task.demand /. float_of_int b);
            (if Core.Classify.is_small path ~delta j then "small" else "large");
          ])
        tasks
    in
    Util.Table.print
      ~header:[ "task"; "span"; "d"; "b(j)"; "d/b"; Printf.sprintf "delta=%.3f" delta ]
      rows
  in
  table "Fig.2(a): uniform capacities" Gen.Paper_figures.fig2_uniform 0.125;
  table "Fig.2(b): valley capacities" Gen.Paper_figures.fig2_valley 0.125

(* F3 — Fig. 3 / Observations 2 & 7: clipping capacities above the band
   ceiling changes nothing. *)
let f3 () =
  Bench_util.section "F3  Fig.3: capacity clipping above a band is free (Obs. 2/7)";
  let prng = Util.Prng.create 31 in
  let path = Gen.Profiles.valley ~edges:6 ~high:60 ~low:16 in
  let tasks = Gen.Workloads.small_tasks ~prng ~path ~n:7 ~delta:0.3 () in
  (* Every bottleneck here lies in [16, 32): clip at 32. *)
  let clipped = Path.clip path 32 in
  let opt_full = Exact.Sap_brute.value path tasks in
  let opt_clip = Exact.Sap_brute.value clipped tasks in
  Printf.printf "  capacities:        %s\n"
    (String.concat " " (Array.to_list (Path.capacities path) |> List.map string_of_int));
  Printf.printf "  clipped:           %s\n"
    (String.concat " " (Array.to_list (Path.capacities clipped) |> List.map string_of_int));
  Printf.printf "  exact OPT full:    %.1f\n" opt_full;
  Printf.printf "  exact OPT clipped: %.1f\n" opt_clip;
  verdict "identical optima" (Float.abs (opt_full -. opt_clip) < 1e-9)

(* F4 — Fig. 4 / Algorithm Strip-Pack: bands packed in strips, stacked. *)
let f4 () =
  Bench_util.section "F4  Fig.4: Strip-Pack computes per-band strips and stacks them";
  let prng = Util.Prng.create 41 in
  let path = Gen.Profiles.staircase ~edges:12 ~steps:3 ~base:16 in
  let tasks = Gen.Workloads.small_tasks ~prng ~path ~n:30 ~delta:0.25 () in
  let sol = Sap.Small.strip_pack ~rounding:(`Lp 16) ~prng path tasks in
  verdict "stacked solution feasible" (Result.is_ok (Core.Checker.sap_feasible path sol));
  let bands = Core.Classify.strip_bands path tasks in
  let rows =
    List.map
      (fun (t, band_tasks) ->
        let in_sol =
          List.filter
            (fun ((j : Task.t), _) ->
              Core.Classify.floor_log2 (Path.bottleneck_of path j) = t)
            sol
        in
        [
          string_of_int t;
          Printf.sprintf "[%d,%d)" (1 lsl t) (1 lsl (t + 1));
          string_of_int (List.length band_tasks);
          string_of_int (List.length in_sol);
          Printf.sprintf "[%d,%d)" (1 lsl (t - 1)) (1 lsl t);
          Util.Table.float_cell ~digits:1 (Core.Solution.sap_weight in_sol);
        ])
      bands
  in
  Util.Table.print
    ~header:[ "band t"; "bottlenecks"; "tasks"; "scheduled"; "strip"; "weight" ]
    rows;
  verdict "every task inside its band's strip"
    (List.for_all
       (fun ((j : Task.t), h) ->
         let t = Core.Classify.floor_log2 (Path.bottleneck_of path j) in
         (1 lsl (t - 1)) <= h && h + j.Task.demand <= 1 lsl t)
       sol)

(* F5 — Fig. 5 / Observation 11: gravity. *)
let f5 () =
  Bench_util.section "F5  Fig.5: applying gravity to a lifted solution (Obs. 11)";
  let prng = Util.Prng.create 51 in
  let path = Path.uniform ~edges:6 ~capacity:24 in
  let tasks = Gen.Workloads.mixed_tasks ~prng ~path ~n:7 () in
  let sol = Exact.Sap_brute.solve path tasks in
  (* Lift everything that has room, then settle. *)
  let lifted =
    List.map
      (fun ((j : Task.t), h) ->
        let slack = Path.bottleneck_of path j - (h + j.Task.demand) in
        (j, h + max 0 (slack / 2)))
      sol
  in
  let lifted =
    if Result.is_ok (Core.Checker.sap_feasible path lifted) then lifted else sol
  in
  let settled = Core.Gravity.settle path lifted in
  let total s = List.fold_left (fun acc (_, h) -> acc + h) 0 s in
  Printf.printf "  sum of heights lifted:  %d\n" (total lifted);
  Printf.printf "  sum of heights settled: %d\n" (total settled);
  verdict "settled solution feasible"
    (Result.is_ok (Core.Checker.sap_feasible path settled));
  verdict "every task rests on ground or on another task"
    (Core.Gravity.is_settled path settled);
  verdict "gravity never lifts"
    (List.for_all (fun (j, h) -> h <= Core.Solution.sap_height lifted j) settled)

(* F6 — Fig. 6 / Lemma 14: partition into two beta-elevated solutions. *)
let f6 () =
  Bench_util.section "F6  Fig.6: partitioning an optimal band solution (Lemma 14)";
  let prng = Util.Prng.create 61 in
  let k = 4 and ell = 1 and q = 2 in
  let cap = 1 lsl (k + ell) in
  let caps = Array.init 6 (fun _ -> (1 lsl k) + Util.Prng.int prng (cap - (1 lsl k))) in
  let path = Path.create caps in
  let tasks = Gen.Workloads.ratio_tasks ~prng ~path ~n:8 ~lo:0.25 ~hi:0.5 () in
  let r = Sap.Elevator.optimal_band ~cap path tasks in
  let sol = r.Sap.Elevator.solution in
  let elevation = 1 lsl (k - q) in
  let s1, s2 = Sap.Elevator.partition_elevated ~elevation sol in
  Printf.printf "  band k=%d, elevation threshold beta*2^k = %d\n" k elevation;
  Printf.printf "  optimal band weight: %.1f\n" (Core.Solution.sap_weight sol);
  Printf.printf "  S1 (lifted low tasks): %d tasks, weight %.1f\n" (List.length s1)
    (Core.Solution.sap_weight s1);
  Printf.printf "  S2 (already elevated): %d tasks, weight %.1f\n" (List.length s2)
    (Core.Solution.sap_weight s2);
  verdict "S1 feasible after lifting" (Result.is_ok (Core.Checker.sap_feasible path s1));
  verdict "both halves elevated"
    (List.for_all (fun (_, h) -> h >= elevation) (s1 @ s2));
  verdict "best half is a 2-approximation of the band optimum"
    (Float.max (Core.Solution.sap_weight s1) (Core.Solution.sap_weight s2)
     >= (Core.Solution.sap_weight sol /. 2.0) -. 1e-9)

(* F7 — Fig. 7: the task -> rectangle reduction. *)
let f7 () =
  Bench_util.section "F7  Fig.7: the rectangle reduction R(j) (Sect. 6)";
  let path = Path.create [| 8; 5; 9; 6 |] in
  let mk id first last d = Task.make ~id ~first_edge:first ~last_edge:last ~demand:d ~weight:1.0 in
  let tasks = [ mk 0 0 1 3; mk 1 1 2 4; mk 2 2 3 5; mk 3 0 3 2 ] in
  let rows =
    List.map
      (fun (j : Task.t) ->
        let b = Path.bottleneck_of path j in
        [
          string_of_int j.Task.id;
          Printf.sprintf "[%d,%d]" j.Task.first_edge j.Task.last_edge;
          string_of_int j.Task.demand;
          string_of_int b;
          string_of_int (b - j.Task.demand);
          Printf.sprintf "[%d,%d) x [%d,%d)" j.Task.first_edge (j.Task.last_edge + 1)
            (b - j.Task.demand) b;
        ])
      tasks
  in
  Util.Table.print ~header:[ "task"; "I_j"; "d_j"; "b(j)"; "l(j)"; "R(j)" ] rows;
  let rects = Rects.Rect.of_tasks path tasks in
  let g = Rects.Rect_graph.build rects in
  Printf.printf "  intersection graph edges: %d\n"
    (List.init (Rects.Rect_graph.size g) (fun i -> Rects.Rect_graph.degree g i)
    |> List.fold_left ( + ) 0 |> fun d -> d / 2)

(* F8 — Fig. 8: the C5 witness (tightness of Lemma 17 for k = 2). *)
let f8 () =
  Bench_util.section "F8  Fig.8: a 1/2-large solution whose rectangles form C5";
  let path, sol = Lazy.force Gen.Paper_figures.fig8 in
  Printf.printf "capacities: %s\n"
    (String.concat " " (Array.to_list (Path.capacities path) |> List.map string_of_int));
  List.iter
    (fun ((j : Task.t), h) ->
      Printf.printf "  task %d  I=[%d,%d] d=%d  placed at [%d,%d)   R(j) = y[%d,%d)\n"
        j.Task.id j.Task.first_edge j.Task.last_edge j.Task.demand h
        (h + j.Task.demand)
        (Path.bottleneck_of path j - j.Task.demand)
        (Path.bottleneck_of path j))
    (Core.Solution.sort_by_id sol);
  verdict "placement feasible" (Result.is_ok (Core.Checker.sap_feasible path sol));
  let tasks = Core.Solution.sap_tasks sol in
  verdict "all tasks 1/2-large"
    (List.for_all
       (fun (j : Task.t) -> 2 * j.Task.demand > Path.bottleneck_of path j)
       tasks);
  let rects = Rects.Rect.of_tasks path tasks in
  verdict "rectangle graph is a chordless 5-cycle" (Gen.Paper_figures.is_c5 rects);
  let g = Rects.Rect_graph.build rects in
  let _, colors = Rects.Rect_graph.greedy_color g in
  Printf.printf "  greedy smallest-last coloring uses %d colors (2k-1 = 3)\n" colors;
  verdict "needs 3 colors (C5 is not 2-colorable)" (colors = 3);
  let mwis = Rects.Rect_mwis.solve rects in
  Printf.printf "  exact MWIS weight on C5: %.0f (of 5 unit-weight tasks)\n"
    (Rects.Rect_mwis.weight mwis)

let run_all () =
  f1 ();
  f2 ();
  f3 ();
  f4 ();
  f5 ();
  f6 ();
  f7 ();
  f8 ()
