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
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
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

(* The covered minterms are [c.value lor s] for the subsets [s] of the
   free mask. [s := (s - free) land free] steps to the next larger subset
   and wraps to 0 after the last, so they come in increasing order: the
   order of [minterms], which counts over the free variables and scatters
   the count's bits onto them. No allocation per minterm. *)
let free_mask ~nvars c = ((1 lsl nvars) - 1) land lnot c.mask

let iter_minterms ~nvars f c =
  let free = free_mask ~nvars c in
  let s = ref 0 and more = ref true in
  while !more do
    f (c.value lor !s);
    s := (!s - free) land free;
    more := !s <> 0
  done

let exists_minterm ~nvars p c =
  let free = free_mask ~nvars c in
  let s = ref 0 and found = ref false and more = ref true in
  while !more do
    if p (c.value lor !s) then begin
      found := true;
      more := false
    end
    else begin
      s := (!s - free) land free;
      more := !s <> 0
    end
  done;
  !found

let compare = Stdlib.compare
