type t = { seed : int; state : Random.State.t }

let make seed = { seed; state = Random.State.make [| 0x5eed; seed |] }

let split t name =
  let child = Hashtbl.hash (t.seed, name) in
  { seed = child; state = Random.State.make [| 0x5eed; child |] }

let int t bound = Random.State.int t.state bound
let bool t = Random.State.bool t.state

let bitvec t ~width = Bitvec.of_bits (List.init width (fun _ -> bool t))

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let subset t ~size l =
  let rec go acc pool k =
    if k = 0 || pool = [] then List.rev acc
    else begin
      let x = pick t pool in
      go (x :: acc) (List.filter (fun y -> y <> x) pool) (k - 1)
    end
  in
  go [] l (min size (List.length l))

let mutate_bindings ~seed bindings =
  let rng = make seed in
  let i = int rng (List.length bindings) in
  let tname, contents = List.nth bindings i in
  let e = int rng (Array.length contents) in
  let b = int rng (Bitvec.width contents.(e)) in
  let contents' = Array.copy contents in
  contents'.(e) <- Bitvec.set contents.(e) b (not (Bitvec.get contents.(e) b));
  ( List.mapi (fun j (n, c) -> if j = i then (n, contents') else (n, c)) bindings,
    Printf.sprintf "%s entry %d bit %d" tname e b )
