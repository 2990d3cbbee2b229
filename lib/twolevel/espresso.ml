(* EXPAND / IRREDUNDANT / REDUCE over a dense function. The hot structure is
   a per-minterm coverage count of the ON-set, kept incrementally, so
   redundancy and unique-coverage queries are O(cube minterms). *)

let expand tf cubes =
  let nvars = Truthfn.nvars tf in
  let grow c =
    let try_drop c v =
      if Cube.has_literal c v then begin
        let c' = Cube.drop_var c v in
        if Truthfn.cube_within tf c' then c' else c
      end
      else c
    in
    List.fold_left try_drop c (List.init nvars Fun.id)
  in
  let step kept c =
    if List.exists (fun k -> Cube.subsumes k c) kept then kept
    else grow c :: kept
  in
  List.rev (List.fold_left step [] cubes)

(* Coverage counts of ON minterms for a cube list. *)
let coverage tf cubes =
  let nvars = Truthfn.nvars tf in
  let counts = Array.make (Truthfn.size tf) 0 in
  let add c =
    Cube.iter_minterms ~nvars
      (fun m -> if Truthfn.get tf m = Truthfn.On then counts.(m) <- counts.(m) + 1)
      c
  in
  List.iter add cubes;
  counts

let irredundant tf cubes =
  let nvars = Truthfn.nvars tf in
  let counts = coverage tf cubes in
  (* Most specific cubes are dropped first. *)
  let by_specificity =
    List.sort
      (fun a b -> Stdlib.compare (Cube.num_literals b) (Cube.num_literals a))
      cubes
  in
  let redundant c =
    not
      (Cube.exists_minterm ~nvars
         (fun m -> Truthfn.get tf m = Truthfn.On && counts.(m) <= 1)
         c)
  in
  let remove c =
    Cube.iter_minterms ~nvars
      (fun m -> if Truthfn.get tf m = Truthfn.On then counts.(m) <- counts.(m) - 1)
      c
  in
  let keep kept c =
    if redundant c then begin
      remove c;
      kept
    end
    else c :: kept
  in
  (* Restore the original cube order for determinism downstream. *)
  let kept = List.fold_left keep [] by_specificity in
  List.filter (fun c -> List.exists (Cube.equal c) kept) cubes

let reduce tf cubes =
  let nvars = Truthfn.nvars tf in
  let counts = coverage tf cubes in
  let shrink c =
    (* Supercube of the ON minterms only this cube covers; [] drops it. *)
    let first = ref (-1) in
    let agree = ref 0 in
    let visit m =
      if Truthfn.get tf m = Truthfn.On && counts.(m) = 1 then begin
        if !first < 0 then begin
          first := m;
          agree := (1 lsl nvars) - 1
        end
        else agree := !agree land lnot (m lxor !first)
      end
    in
    Cube.iter_minterms ~nvars visit c;
    let reduced =
      if !first < 0 then None
      else Some (Cube.make ~mask:!agree ~value:(!first land !agree))
    in
    (* Release the ON minterms this cube gives up, so a later cube that
       shares one sees itself as its only cover and keeps it. *)
    let kept m =
      match reduced with Some r -> Cube.covers_minterm r m | None -> false
    in
    Cube.iter_minterms ~nvars
      (fun m ->
        if Truthfn.get tf m = Truthfn.On && not (kept m) then
          counts.(m) <- counts.(m) - 1)
      c;
    reduced
  in
  List.filter_map shrink cubes

let cost cubes =
  ( List.length cubes,
    List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 cubes )

let minimize ?(max_iters = 3) ?initial tf =
  let nvars = Truthfn.nvars tf in
  let initial =
    match initial with
    | Some cs -> cs
    | None -> List.map (Cube.of_minterm ~nvars) (Truthfn.on_set tf)
  in
  let first = irredundant tf (expand tf initial) in
  let rec loop i best =
    if i >= max_iters then best
    else begin
      let candidate = irredundant tf (expand tf (reduce tf best)) in
      if cost candidate < cost best then loop (i + 1) candidate else best
    end
  in
  let cubes = loop 1 first in
  Cover.make ~nvars cubes
