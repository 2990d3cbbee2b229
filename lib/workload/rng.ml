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

(* Each pick is the [int t alive]-th element still alive, in list order,
   and every structurally equal copy of it retires at once: the same draws
   as picking from a list pool and filtering the pick out of it. A Fenwick
   tree over the 1-based positions counts the alive ones, so a pick costs
   O(log n); [copies] maps each value to its positions. *)
let subset t ~size l =
  let a = Array.of_list l in
  let n = Array.length a in
  (* Every position starts alive, so node [i] counts [i land (-i)] of them. *)
  let tree = Array.init (n + 1) (fun i -> i land -i) in
  let rec retire i =
    if i <= n then begin
      tree.(i) <- tree.(i) - 1;
      retire (i + (i land -i))
    end
  in
  (* 0-based position of the [r]-th (0-based) alive element. *)
  let nth_alive r =
    let pos = ref 0 and rem = ref r and bit = ref 1 in
    while !bit * 2 <= n do bit := !bit * 2 done;
    while !bit > 0 do
      let next = !pos + !bit in
      if next <= n && tree.(next) <= !rem then begin
        pos := next;
        rem := !rem - tree.(next)
      end;
      bit := !bit / 2
    done;
    !pos
  in
  let copies = Hashtbl.create n in
  Array.iteri (fun i x -> Hashtbl.add copies x (i + 1)) a;
  let rec go acc alive k =
    if k <= 0 || alive = 0 then List.rev acc
    else begin
      let x = a.(nth_alive (int t alive)) in
      let positions = Hashtbl.find_all copies x in
      List.iter retire positions;
      go (x :: acc) (alive - List.length positions) (k - 1)
    end
  in
  go [] n size

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
