type t = { mask : int; value : int }

let max_vars = 30

let make ~mask ~value =
  if mask lsr max_vars <> 0 then invalid_arg "Cube.make: too many variables";
  { mask; value = value land mask }

let top = { mask = 0; value = 0 }

let of_minterm ~nvars m =
  if nvars > max_vars then invalid_arg "Cube.of_minterm: too many variables";
  let mask = (1 lsl nvars) - 1 in
  { mask; value = m land mask }

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + (x land 1)) in
  go x 0

let num_literals c = popcount c.mask

let free_vars ~nvars c =
  List.filter (fun i -> c.mask lsr i land 1 = 0) (List.init nvars Fun.id)

let covers_minterm c m = m land c.mask = c.value

let subsumes c d = c.mask land d.mask = c.mask && d.value land c.mask = c.value

let combine a b =
  if a.mask <> b.mask then None
  else
    let diff = a.value lxor b.value in
    if diff <> 0 && diff land (diff - 1) = 0 then
      Some { mask = a.mask lxor diff; value = a.value land lnot diff }
    else None

let drop_var c i = { mask = c.mask land lnot (1 lsl i); value = c.value land lnot (1 lsl i) }

let has_literal c i = c.mask lsr i land 1 = 1

let literal_value c i =
  if not (has_literal c i) then invalid_arg "Cube.literal_value: absent literal";
  c.value lsr i land 1 = 1

let minterms ~nvars c =
  let free = free_vars ~nvars c in
  let k = List.length free in
  let expand j =
    (* Scatter the bits of j onto the free variable positions. *)
    let _, m =
      List.fold_left
        (fun (bit, m) v ->
          (bit + 1, if j lsr bit land 1 = 1 then m lor (1 lsl v) else m))
        (0, c.value) free
    in
    m
  in
  Seq.init (1 lsl k) expand

(* Enumerate covered minterms by counting j over the free variables and
   scattering its bits onto the free positions — no allocation per minterm. *)
let iter_minterms ~nvars f c =
  let free = Array.of_list (free_vars ~nvars c) in
  let k = Array.length free in
  for j = 0 to (1 lsl k) - 1 do
    let m = ref c.value in
    for bit = 0 to k - 1 do
      if j lsr bit land 1 = 1 then m := !m lor (1 lsl free.(bit))
    done;
    f !m
  done

exception Found

let exists_minterm ~nvars p c =
  match iter_minterms ~nvars (fun m -> if p m then raise Found) c with
  | () -> false
  | exception Found -> true

let equal a b = a.mask = b.mask && a.value = b.value
let compare = Stdlib.compare
