(* S1 — wall-clock micro-benchmarks (bechamel): one Test.make per
   {!Sap.Solvers} entry, run over pre-generated instances of two sizes,
   each entry on its own class subset ({!Sap.Solvers.subset}, as the lab
   and [combine] run it).  Estimates are OLS nanoseconds per run against
   the monotonic clock.  [exact] is left out: its run time is its node
   budget (tens of seconds at n = 30), not a solver speed. *)

open Bechamel
open Bechamel.Toolkit

let instance_of ~path_of ~n ~edges seed =
  let g = Util.Prng.create seed in
  let path = path_of ~edges in
  (path, Gen.Workloads.mixed_tasks ~prng:g ~path ~n ())

let tests () =
  let sizes path_of =
    (instance_of ~path_of ~n:30 ~edges:10 1, instance_of ~path_of ~n:80 ~edges:20 2)
  in
  let valley = sizes (fun ~edges -> Gen.Profiles.valley ~edges ~high:64 ~low:16) in
  let uniform = sizes (fun ~edges -> Gen.Profiles.uniform ~edges ~capacity:64) in
  let seed = Sap.Combine.default_config.Sap.Combine.seed in
  let run s (path, ts) =
    let ts = Sap.Solvers.subset s path ts in
    fun () -> ignore (s.Sap.Solvers.solve ~seed ~parallel:false path ts)
  in
  let accepts s inst =
    match run s inst () with () -> true | exception Invalid_argument _ -> false
  in
  Test.make_grouped ~name:"sap" ~fmt:"%s %s"
    (List.concat_map
       (fun s ->
         (* Entries that reject the valley profile ([sapu] needs uniform
            capacities) run on uniform paths of the same sizes. *)
         let lo, hi = if accepts s (fst valley) then valley else uniform in
         let mk size inst =
           Test.make ~name:(s.Sap.Solvers.name ^ size) (Staged.stage (run s inst))
         in
         [ mk " (n=30,m=10)" lo; mk " (n=80,m=20)" hi ])
       (List.filter (fun s -> s.Sap.Solvers.name <> "exact") Sap.Solvers.all))

let run () =
  Bench_util.section "S1  Runtime (bechamel, ns per run, OLS estimate)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      let ns =
        match Analyze.OLS.estimates v with Some (x :: _) -> x | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _) (b, _) -> compare a b) !rows
    |> List.map (fun (name, ns) ->
           [
             name;
             (if Float.is_nan ns then "-" else Util.Table.float_cell ~digits:0 ns);
             (if Float.is_nan ns then "-"
              else Util.Table.float_cell ~digits:3 (ns /. 1e6));
           ])
  in
  Util.Table.print ~header:[ "benchmark"; "ns/run"; "ms/run" ] rows
