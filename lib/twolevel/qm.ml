(* Classic tabular method. Implicants are grouped by care-mask; within a mask
   group, cubes whose values differ in exactly one set bit merge into an
   implicant with that bit freed. Uncombined implicants are prime. *)

module Cube_set = Set.Make (Cube)

let primes tf =
  let nvars = Truthfn.nvars tf in
  let initial =
    List.map (Cube.of_minterm ~nvars)
      (Truthfn.on_set tf @ Truthfn.dc_set tf)
  in
  let rec rounds current primes_acc =
    if current = [] then primes_acc
    else begin
      let arr = Array.of_list current in
      let n = Array.length arr in
      let combined = Array.make n false in
      let next = ref Cube_set.empty in
      (* Index by mask so only comparable cubes pair up. *)
      let by_mask = Hashtbl.create 64 in
      Array.iteri
        (fun i (c : Cube.t) ->
          let l = Option.value ~default:[] (Hashtbl.find_opt by_mask c.mask) in
          Hashtbl.replace by_mask c.mask (i :: l))
        arr;
      let pair_group idxs =
        let idxs = Array.of_list idxs in
        let k = Array.length idxs in
        for a = 0 to k - 1 do
          for b = a + 1 to k - 1 do
            match Cube.combine arr.(idxs.(a)) arr.(idxs.(b)) with
            | Some c ->
              combined.(idxs.(a)) <- true;
              combined.(idxs.(b)) <- true;
              next := Cube_set.add c !next
            | None -> ()
          done
        done
      in
      Hashtbl.iter (fun _ idxs -> pair_group idxs) by_mask;
      let new_primes = ref primes_acc in
      for i = 0 to n - 1 do
        if not combined.(i) then new_primes := arr.(i) :: !new_primes
      done;
      rounds (Cube_set.elements !next) !new_primes
    end
  in
  rounds initial []

let select_greedy tf primes_list =
  let on = Truthfn.on_set tf in
  let covers c m = Cube.covers_minterm c m in
  (* Essential primes: sole cover of some ON minterm. *)
  let essential =
    List.filter_map
      (fun m ->
        match List.filter (fun c -> covers c m) primes_list with
        | [ c ] -> Some c
        | _ -> None)
      on
    |> List.sort_uniq Cube.compare
  in
  let remaining =
    List.filter (fun m -> not (List.exists (fun c -> covers c m) essential)) on
  in
  let rec greedy chosen remaining =
    if remaining = [] then List.rev chosen
    else begin
      let gain c = List.length (List.filter (covers c) remaining) in
      let best =
        List.fold_left
          (fun acc c ->
            let g = gain c in
            match acc with
            | Some (_, gb) when gb >= g -> acc
            | _ when g = 0 -> acc
            | _ -> Some (c, g))
          None primes_list
      in
      match best with
      | None -> List.rev chosen (* unreachable when primes are complete *)
      | Some (c, _) ->
        greedy (c :: chosen) (List.filter (fun m -> not (covers c m)) remaining)
    end
  in
  essential @ greedy [] remaining

exception Out_of_budget

(* Search nodes the exact cover may visit before greedy selection takes
   over. *)
let node_limit = 200_000

let select_exact tf primes_list =
  let primes_arr = Array.of_list primes_list in
  let n = Array.length primes_arr in
  let candidates m =
    List.filter
      (fun i -> Cube.covers_minterm primes_arr.(i) m)
      (List.init n Fun.id)
  in
  let rows = List.map (fun m -> (m, candidates m)) (Truthfn.on_set tf) in
  let nodes = ref 0 in
  let best = ref None in
  let best_size = ref max_int in
  let rec search chosen rows =
    incr nodes;
    if !nodes > node_limit then raise Out_of_budget;
    if List.length chosen >= !best_size then ()
    else
      match rows with
      | [] ->
        best := Some (List.rev chosen);
        best_size := List.length chosen
      | _ :: _ ->
        (* Branch on the most constrained remaining row. *)
        let most_constrained =
          List.fold_left
            (fun acc (m, cs) ->
              match acc with
              | Some (_, acs) when List.length acs <= List.length cs -> acc
              | _ -> Some (m, cs))
            None rows
        in
        (match most_constrained with
         | None -> ()
         | Some (_, cands) ->
           let try_prime i =
             let still_uncovered (m, _) =
               not (Cube.covers_minterm primes_arr.(i) m)
             in
             search (i :: chosen) (List.filter still_uncovered rows)
           in
           List.iter try_prime cands)
  in
  match search [] rows with
  | () -> Option.map (List.map (fun i -> primes_arr.(i))) !best
  | exception Out_of_budget -> None

let minimize tf =
  let ps = primes tf in
  let cubes =
    match select_exact tf ps with
    | Some sel -> sel
    | None -> select_greedy tf ps
  in
  Cover.make ~nvars:(Truthfn.nvars tf) cubes
