type t = {
  name : string;
  bound : float option;
  part : Combine.part option;
  solve :
    seed:int -> parallel:bool -> Core.Path.t -> Core.Task.t list ->
    Core.Solution.sap;
}

let dc = Combine.default_config

let q = Combine.q_of_beta dc.Combine.beta

let ell = Almost_uniform.ell_for_eps ~eps:dc.Combine.eps ~q

let small_bound = 4.0 +. dc.Combine.eps

let medium_bound = 2.0 +. dc.Combine.eps

let large_bound = 3.0

let class_of part path ts =
  let split = Combine.split dc path ts in
  match part with
  | Combine.Small_part -> split.Core.Classify.small
  | Combine.Medium_part -> split.Core.Classify.medium
  | Combine.Large_part -> split.Core.Classify.large

(* A class entry hands its engine only the tasks of its own class, so no
   caller can feed, say, δ-small tasks to the Elevator DP. *)
let class_entry name bound part engine =
  {
    name;
    bound = Some bound;
    part = Some part;
    solve =
      (fun ~seed ~parallel path ts ->
        engine ~seed ~parallel path (class_of part path ts));
  }

let all =
  [
    class_entry "small" small_bound Combine.Small_part
      (fun ~seed ~parallel path ts ->
        Small.strip_pack ~parallel ~rounding:dc.Combine.rounding
          ~prng:(Util.Prng.create seed) path ts);
    class_entry "medium" medium_bound Combine.Medium_part
      (fun ~seed:_ ~parallel:_ path ts ->
        (Almost_uniform.run ~ell ~q ?max_states:dc.Combine.max_states path ts)
          .Almost_uniform.solution);
    class_entry "large" large_bound Combine.Large_part
      (fun ~seed:_ ~parallel:_ path ts -> Large.solve path ts);
    {
      name = "combine";
      bound = Some (small_bound +. medium_bound +. large_bound);
      part = None;
      solve =
        (fun ~seed ~parallel path ts ->
          Combine.solve ~config:{ dc with Combine.seed; parallel } path ts);
    };
    {
      name = "sapu";
      bound = None;
      part = None;
      solve = (fun ~seed:_ ~parallel:_ path ts -> Sap_u.solve path ts);
    };
    {
      name = "firstfit";
      bound = None;
      part = None;
      solve =
        (fun ~seed:_ ~parallel:_ path ts -> fst (Dsa.First_fit.pack path ts));
    };
    {
      name = "exact";
      bound = None;
      part = None;
      solve =
        (fun ~seed:_ ~parallel:_ path ts ->
          (Exact.Exact_bb.solve path ts).Exact.Exact_bb.solution);
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

let names = List.map (fun s -> s.name) all

let subset s path ts =
  match s.part with None -> ts | Some part -> class_of part path ts
