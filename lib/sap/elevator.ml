module Task = Core.Task
module Path = Core.Path

type result = {
  solution : Core.Solution.sap;
  exact : bool;
}

let m_dp_states = Obs.Metrics.counter "elevator.dp_states"

let m_truncations = Obs.Metrics.counter "elevator.truncations"

let m_candidate_heights = Obs.Metrics.counter "elevator.candidate_heights"

let m_band_solves = Obs.Metrics.counter "elevator.band_solves"

(* Does the height interval [\[p, top)] meet an alive task's? *)
let rec collides p top = function
  | [] -> false
  | ((i : Task.t), h) :: rest -> (p < h + i.Task.demand && h < top) || collides p top rest

(* Candidate heights: bounded distinct subset sums of all demands; the
   gravity argument makes this complete.  Capped to keep adversarial
   palettes polynomial — the flag records whether the cap was reached. *)
let candidate_cap = 4096

let height_candidates ~cap ~min_height ts =
  let demands = List.map (fun (j : Task.t) -> j.Task.demand) ts in
  let sums = Util.Subset_sum.distinct_sums_capped ~cap:candidate_cap ~bound:cap demands in
  let exact = List.length sums < candidate_cap in
  if min_height = 0 then (sums, exact)
  else begin
    (* An optimal elevated solution exists whose heights are either subset
       sums >= min_height or subset sums lifted by min_height (the shape
       Lemma 14's partition produces), so both families are candidates. *)
    let lifted = List.map (fun h -> h + min_height) sums in
    let both =
      List.sort_uniq Int.compare
        (List.filter (fun h -> h >= min_height && h < cap) (sums @ lifted))
    in
    (both, exact)
  end

let optimal_band ~cap ?(min_height = 0) ?(max_states = 20000) path ts =
  let clipped = Path.clip path cap in
  let ts =
    List.filter (fun (j : Task.t) -> j.Task.demand <= Path.bottleneck_of clipped j) ts
  in
  match ts with
  | [] -> { solution = []; exact = true }
  | _ ->
      let candidates, cands_exact = height_candidates ~cap ~min_height ts in
      Obs.Metrics.incr m_band_solves;
      Obs.Metrics.add m_candidate_heights (List.length candidates);
      (* Candidates ascend, so the first one past [j]'s ceiling ends the
         list. *)
      let heights (j : Task.t) =
        let highest = Path.bottleneck_of clipped j - j.Task.demand in
        fun alive ->
          let rec fit = function
            | p :: rest when p <= highest ->
                if collides p (p + j.Task.demand) alive then fit rest else p :: fit rest
            | _ -> []
          in
          fit candidates
      in
      let r =
        Ufpp.Band_sweep.run ~max_states ~edges:(Path.num_edges clipped) ~heights ts
      in
      Obs.Metrics.add m_dp_states r.Ufpp.Band_sweep.states;
      Obs.Metrics.add m_truncations r.Ufpp.Band_sweep.truncations;
      let exact = cands_exact && r.Ufpp.Band_sweep.truncations = 0 in
      { solution = r.Ufpp.Band_sweep.placed; exact }

let partition_elevated ~elevation sol =
  let low, high = List.partition (fun (_, h) -> h < elevation) sol in
  (Core.Solution.lift low elevation, high)

let elevation ~k ~q = if k >= q then 1 lsl (k - q) else 1

let solve ~k ~ell ~q ?max_states path ts =
  optimal_band ~cap:(1 lsl (k + ell)) ~min_height:(elevation ~k ~q) ?max_states path ts

let solve_partition ~k ~ell ~q ?max_states path ts =
  let r = optimal_band ~cap:(1 lsl (k + ell)) ?max_states path ts in
  let s1, s2 = partition_elevated ~elevation:(elevation ~k ~q) r.solution in
  (* S2 is a sub-solution of a feasible solution, hence feasible; S1 is
     feasible for (1-2beta)-small tasks by Lemma 14 — machine-checked,
     and discarded if the integer edge cases of a tiny band break it. *)
  let s1_ok = Result.is_ok (Core.Checker.sap_feasible path s1) in
  let w1 = if s1_ok then Core.Solution.sap_weight s1 else neg_infinity in
  let w2 = Core.Solution.sap_weight s2 in
  { solution = (if w1 >= w2 then s1 else s2); exact = r.exact }
