type t = { nvars : int; cubes : Cube.t list }

let make ~nvars cubes = { nvars; cubes }

let num_cubes t = List.length t.cubes

let literals t =
  List.fold_left (fun acc c -> acc + Cube.num_literals c) 0 t.cubes

let remove_subsumed t =
  (* Keep a cube only if no *other* kept-or-later cube subsumes it; process
     big cubes first so minterms collapse into their largest implicant. *)
  let sorted =
    List.sort
      (fun a b -> Stdlib.compare (Cube.num_literals a) (Cube.num_literals b))
      t.cubes
  in
  let keep kept c =
    if List.exists (fun k -> Cube.subsumes k c) kept then kept else c :: kept
  in
  { t with cubes = List.rev (List.fold_left keep [] sorted) }

let of_truthfn tf =
  let nvars = Truthfn.nvars tf in
  { nvars; cubes = List.map (Cube.of_minterm ~nvars) (Truthfn.on_set tf) }

let agrees t tf = Truthfn.cover_agrees tf t.cubes
