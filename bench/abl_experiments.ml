(* ABL — ablations over the design choices DESIGN.md calls out:
   ABL1  Elevator: Lemma 15 partition vs the direct elevated DP
   ABL2  strip transform engine: first fit vs buddy (retention loss)
   ABL3  Elevator DP state cap: solution quality vs cap
   ABL4  LP-rounding trials: weight vs randomized-trial budget
   ABL5  AlmostUniform ell: the Lemma 9/10 ell/(ell+q) trade-off, measured
   ABL6  Combine delta threshold: where to cut small vs medium
   ABL7  ring knapsack eps: FPTAS precision vs candidate weight *)

module Task = Core.Task
module Path = Core.Path

let band_instance seed =
  let g = Util.Prng.create seed in
  let k = 4 and ell = 1 in
  let cap = 1 lsl (k + ell) in
  let caps = Array.init 6 (fun _ -> (1 lsl k) + Util.Prng.int g (cap - (1 lsl k))) in
  let path = Path.create caps in
  (path, Gen.Workloads.ratio_tasks ~prng:g ~path ~n:8 ~lo:0.25 ~hi:0.5 ())

let abl1 () =
  Bench_util.section "ABL1  Elevator: partition (Lemma 15) vs direct elevated DP";
  let rows =
    Bench_util.seeds ~base:2000 ~count:10
    |> List.map (fun seed ->
           let path, tasks = band_instance seed in
           let part, t_part =
             Bench_util.timed (fun () ->
                 Sap.Elevator.solve_partition ~k:4 ~ell:1 ~q:2 path tasks)
           in
           let direct, t_direct =
             Bench_util.timed (fun () ->
                 Sap.Elevator.solve ~k:4 ~ell:1 ~q:2 path tasks)
           in
           let wp = Core.Solution.sap_weight part.Sap.Elevator.solution in
           let wd = Core.Solution.sap_weight direct.Sap.Elevator.solution in
           [
             string_of_int seed;
             Util.Table.float_cell ~digits:1 wp;
             Util.Table.float_cell ~digits:1 wd;
             Util.Table.float_cell (wd /. Float.max 1e-9 wp);
             Util.Table.float_cell ~digits:1 (t_part *. 1e3);
             Util.Table.float_cell ~digits:1 (t_direct *. 1e3);
           ])
  in
  Util.Table.print
    ~header:[ "seed"; "partition w"; "direct w"; "direct/part"; "part ms"; "direct ms" ]
    rows;
  print_endline
    "  (the direct DP is never lighter — it optimises over all elevated solutions)"

let abl2 () =
  Bench_util.section "ABL2  Strip transform engine: first fit vs buddy (weight loss)";
  let rows =
    Bench_util.seeds ~base:2100 ~count:8
    |> List.map (fun seed ->
           let g = Util.Prng.create seed in
           let height = 64 in
           let edges = 8 in
           let path = Path.uniform ~edges ~capacity:(height / 2) in
           let tasks =
             Gen.Workloads.small_tasks ~prng:g ~path ~n:40 ~delta:0.2 ()
             |> Ufpp.Greedy.solve path
           in
           let ff = Dsa.Strip_transform.transform ~engine:`First_fit ~height ~edges tasks in
           let bd = Dsa.Strip_transform.transform ~engine:`Buddy ~height ~edges tasks in
           [
             string_of_int seed;
             string_of_int (List.length tasks);
             Util.Table.float_cell (Dsa.Strip_transform.loss_fraction ff);
             Util.Table.float_cell (Dsa.Strip_transform.loss_fraction bd);
           ])
  in
  Util.Table.print
    ~header:[ "seed"; "input tasks"; "loss (first fit)"; "loss (buddy)" ]
    rows;
  print_endline "  (Lemma 4's bound would be 4*delta = 0.8 here; both engines stay far below)"

let abl3 () =
  Bench_util.section "ABL3  Elevator DP state cap: quality vs cap";
  let path, tasks = band_instance 2217 in
  let full = Sap.Elevator.optimal_band ~cap:32 path tasks in
  let w_full = Core.Solution.sap_weight full.Sap.Elevator.solution in
  let rows =
    List.map
      (fun cap ->
        let r = Sap.Elevator.optimal_band ~cap:32 ~max_states:cap path tasks in
        let w = Core.Solution.sap_weight r.Sap.Elevator.solution in
        [
          string_of_int cap;
          Util.Table.float_cell ~digits:1 w;
          Util.Table.float_cell (w /. Float.max 1e-9 w_full);
          (if r.Sap.Elevator.exact then "yes" else "no");
        ])
      [ 1; 4; 16; 64; 256; 20000 ]
  in
  Util.Table.print ~header:[ "state cap"; "weight"; "vs uncapped"; "exact?" ] rows

let abl4 () =
  Bench_util.section "ABL4  LP rounding: weight vs randomized-trial budget";
  let seeds = Bench_util.seeds ~base:2300 ~count:6 in
  let rows =
    List.map
      (fun trials ->
        let weights =
          List.map
            (fun seed ->
              let g = Util.Prng.create seed in
              let b = 32 in
              let path = Path.create (Array.init 8 (fun _ -> b + Util.Prng.int g b)) in
              let tasks = Gen.Workloads.small_tasks ~prng:g ~path ~n:40 ~delta:0.2 () in
              let sol, _ =
                Sap.Small.solve_band ~b ~rounding:(`Lp trials)
                  ~prng:(Util.Prng.create (seed + 1)) path tasks
              in
              Core.Solution.sap_weight sol)
            seeds
        in
        [
          string_of_int trials;
          Util.Table.float_cell ~digits:1 (Util.Stats.mean weights);
        ])
      [ 0; 1; 4; 16; 64 ]
  in
  Util.Table.print ~header:[ "trials"; "mean strip weight" ] rows;
  print_endline "  (trials = 0 is the deterministic greedy-density rounding alone)"

let abl5 () =
  Bench_util.section "ABL5  AlmostUniform ell: the ell/(ell+q) trade-off (Lemmas 9/10)";
  let instances =
    Bench_util.batch ~count:8 ~base:2400 (fun seed ->
        let g = Util.Prng.create seed in
        let path = Gen.Profiles.staircase ~edges:10 ~steps:3 ~base:16 in
        (path, Gen.Workloads.ratio_tasks ~prng:g ~path ~n:14 ~lo:0.25 ~hi:0.5 ()))
  in
  let rows =
    List.map
      (fun ell ->
        let weights, times =
          List.split
            (List.map
               (fun (path, tasks) ->
                 let r, dt =
                   Bench_util.timed (fun () ->
                       Sap.Almost_uniform.run ~ell ~q:2 path tasks)
                 in
                 (Core.Solution.sap_weight r.Sap.Almost_uniform.solution, dt))
               instances)
        in
        [
          string_of_int ell;
          Util.Table.float_cell ~digits:2
            (float_of_int ell /. float_of_int (ell + 2));
          Util.Table.float_cell ~digits:1 (Util.Stats.mean weights);
          Util.Table.float_cell ~digits:1 (1e3 *. Util.Stats.mean times);
        ])
      [ 1; 2; 4 ]
  in
  Util.Table.print
    ~header:[ "ell"; "theory factor ell/(ell+q)"; "mean weight"; "mean ms" ]
    rows

let abl6 () =
  Bench_util.section "ABL6  Combine: the small/medium delta threshold";
  let instances =
    Bench_util.batch ~count:8 ~base:2500 (fun seed ->
        let g = Util.Prng.create seed in
        let path = Helpers_path.big_path g in
        (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n:40 ()))
  in
  let rows =
    List.map
      (fun delta ->
        let weights =
          List.map
            (fun (path, tasks) ->
              let config = { Sap.Combine.default_config with Sap.Combine.delta } in
              Core.Solution.sap_weight (Sap.Combine.solve ~config path tasks))
            instances
        in
        [ Util.Table.float_cell delta; Util.Table.float_cell ~digits:1 (Util.Stats.mean weights) ])
      [ 0.1; 0.25; 0.4; 0.5 ]
  in
  Util.Table.print ~header:[ "delta"; "mean combine weight" ] rows;
  print_endline "  (theory wants a microscopic delta; in practice the split barely matters)"

let abl7 () =
  Bench_util.section "ABL7  Ring knapsack FPTAS eps: precision vs candidate weight";
  let rings =
    List.map
      (fun seed ->
        let prng = Util.Prng.create seed in
        Gen.Ring_gen.random ~prng ~edges:8 ~n:12 ~cap_lo:12 ~cap_hi:24 ~ratio_lo:0.0
          ~ratio_hi:0.8)
      (Bench_util.seeds ~base:2600 ~count:6)
  in
  let rows =
    List.map
      (fun eps ->
        let weights =
          List.map
            (fun ring ->
              let r = Sap.Ring_algo.solve_report ~knapsack_eps:eps ring in
              r.Sap.Ring_algo.through_weight)
            rings
        in
        [ Util.Table.float_cell eps; Util.Table.float_cell ~digits:1 (Util.Stats.mean weights) ])
      [ 0.5; 0.2; 0.1; 0.02 ]
  in
  Util.Table.print ~header:[ "eps"; "mean through-candidate weight" ] rows

let run_all () =
  abl1 ();
  abl2 ();
  abl3 ();
  abl4 ();
  abl5 ();
  abl6 ();
  abl7 ()
