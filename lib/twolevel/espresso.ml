(* EXPAND / IRREDUNDANT / REDUCE over a dense function. The hot structure is
   a per-minterm coverage count of the ON-set, kept incrementally, so
   redundancy and unique-coverage queries are O(cube minterms). *)

let expand tf cubes =
  let nvars = Truthfn.nvars tf in
  (* Once [c] lies within ON u DC, dropping literal [v] stays within iff
     the half-cube the drop adds (literal [v] flipped) does. A cube that
     meets the OFF-set cannot grow at all. *)
  let grow c =
    let try_drop (c : Cube.t) v =
      if Cube.has_literal c v then begin
        let added = Cube.make ~mask:c.mask ~value:(c.value lxor (1 lsl v)) in
        if Truthfn.cube_within tf added then Cube.drop_var c v else c
      end
      else c
    in
    if Truthfn.cube_within tf c then
      List.fold_left try_drop c (List.init nvars Fun.id)
    else c
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
      (fun m -> if Truthfn.is_on tf m then counts.(m) <- counts.(m) + 1)
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
         (fun m -> Truthfn.is_on tf m && counts.(m) <= 1)
         c)
  in
  let remove c =
    Cube.iter_minterms ~nvars
      (fun m -> if Truthfn.is_on tf m then counts.(m) <- counts.(m) - 1)
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
  let kept = Hashtbl.create 64 in
  List.iter
    (fun c -> Hashtbl.replace kept c ())
    (List.fold_left keep [] by_specificity);
  List.filter (Hashtbl.mem kept) cubes

let reduce tf cubes =
  let nvars = Truthfn.nvars tf in
  let counts = coverage tf cubes in
  let shrink c =
    (* Supercube of the ON minterms only this cube covers; [] drops it. *)
    let first = ref (-1) in
    let agree = ref 0 in
    let visit m =
      if Truthfn.is_on tf m && counts.(m) = 1 then begin
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
        if Truthfn.is_on tf m && not (kept m) then
          counts.(m) <- counts.(m) - 1)
      c;
    reduced
  in
  List.filter_map shrink cubes

let cost cubes =
  ( List.length cubes,
    List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 cubes )

let max_iters = 3

let minimize tf =
  let nvars = Truthfn.nvars tf in
  let initial = List.map (Cube.of_minterm ~nvars) (Truthfn.on_set tf) in
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
