open Synth

let latch_group g ~prefix =
  let rec collect i acc =
    match Aig.find_latch g (Lower.bit_name prefix i) with
    | Some n -> collect (i + 1) (n :: acc)
    | None -> List.rev acc
  in
  match collect 0 [] with
  | [] -> None
  | nodes -> Some (Array.of_list nodes)

let max_vars = 64
let max_bdd = 200_000
let max_states = 4096
let max_iters = 10_000

let reachable_values g ~group =
  let k = Array.length group in
  if k = 0 || k > 24 then None
  else begin
    (* Group bits are variables 0..k-1; every other leaf of the next-state
       cones is a free variable from 2k. *)
    let man = Bdd.make_man () in
    let vars = Symbolic.Vars.create ~max_vars ~first:(2 * k) group in
    let lit =
      Symbolic.converter man ~max_bdd ~leaf:(Symbolic.Vars.var vars) g
    in
    match
      let next = Array.map (fun n -> lit (Aig.latch_next g n)) group in
      let init =
        Array.map
          (fun n ->
            let _, init, _, _ = Aig.latch_info g n in
            init)
          group
      in
      let m =
        Symbolic.machine man ~max_bdd ~next ~init
          ~inputs:(Symbolic.Vars.fresh vars)
      in
      let reached, _ = Symbolic.reach ~max_iters m in
      let values = List.of_seq (Bdd.sat_seq reached ~nvars:k) in
      if List.length values > max_states then raise Symbolic.Overflow;
      values
    with
    | values -> Some values
    | exception Symbolic.Overflow -> None
  end
