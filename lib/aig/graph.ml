type lit = int

type kind = Const | Pi | Latch | And

type latch_record = {
  lname : string;
  init : bool;
  reset : Rtl.Design.reset_kind;
  is_config : bool;
  mutable next : lit option;
}

type t = {
  mutable kinds : kind array;
  mutable fan0 : lit array;
  mutable fan1 : lit array;
  mutable names : string array;  (* PI names; "" otherwise *)
  mutable latch_recs : latch_record option array;
  mutable n : int;
  (* Structural hash: open addressing with linear probing over the
     packed key [(f0 lsl 31) lor f1] of an AND's ordered fanins, with
     the node id in the same slot of [strash_ids]. A key is never 0
     (f0 >= 2), so 0 marks an empty slot. The table holds at most half
     as many ANDs as it has slots, [1 lsl strash_bits]. *)
  mutable strash_keys : int array;
  mutable strash_ids : int array;
  mutable strash_bits : int;
  mutable pi_list : int list;      (* reversed *)
  mutable latch_list : int list;   (* reversed *)
  mutable po_list : (string * lit) list;  (* reversed *)
  by_pi_name : (string, int) Hashtbl.t;
  by_latch_name : (string, int) Hashtbl.t;
  (* Counts tracked incrementally and forward views memoized: these are
     read inside per-cycle simulation loops, where List.length/List.rev
     per call would dominate. Memos are invalidated on insertion. *)
  mutable n_pis : int;
  mutable n_latches : int;
  mutable n_pos : int;
  mutable n_ands : int;
  mutable pis_memo : int list option;
  mutable latches_memo : int list option;
  mutable pos_memo : (string * lit) list option;
}

let false_ : lit = 0
let true_ : lit = 1
let not_ l = l lxor 1
let is_complemented l = l land 1 = 1
let node_of_lit l = l lsr 1
let lit_of_node n c = (n lsl 1) lor (if c then 1 else 0)

let create () =
  let cap = 64 (* = 1 lsl strash_bits *) in
  {
    kinds = Array.make cap Const;
    fan0 = Array.make cap 0;
    fan1 = Array.make cap 0;
    names = Array.make cap "";
    latch_recs = Array.make cap None;
    n = 1;  (* node 0 is the constant *)
    strash_keys = Array.make cap 0;
    strash_ids = Array.make cap 0;
    strash_bits = 6;
    pi_list = [];
    latch_list = [];
    po_list = [];
    by_pi_name = Hashtbl.create 64;
    by_latch_name = Hashtbl.create 64;
    n_pis = 0;
    n_latches = 0;
    n_pos = 0;
    n_ands = 0;
    pis_memo = None;
    latches_memo = None;
    pos_memo = None;
  }

let grow t =
  let cap = Array.length t.kinds in
  if t.n >= cap then begin
    let extend a fill = Array.append a (Array.make cap fill) in
    t.kinds <- extend t.kinds Const;
    t.fan0 <- extend t.fan0 0;
    t.fan1 <- extend t.fan1 0;
    t.names <- extend t.names "";
    t.latch_recs <- extend t.latch_recs None
  end

(* Node ids stay below 2^30, so a literal fits in 31 bits and the packed
   strash key [(f0 lsl 31) lor f1] in 62. *)
let max_nodes = 1 lsl 30

let new_node t k =
  if t.n >= max_nodes then
    invalid_arg "Aig.new_node: graph exceeds 2^30 nodes (strash key bound)";
  grow t;
  let id = t.n in
  t.kinds.(id) <- k;
  t.n <- t.n + 1;
  id

let pi t name =
  if Hashtbl.mem t.by_pi_name name then
    invalid_arg ("Aig.pi: duplicate input name " ^ name);
  let id = new_node t Pi in
  t.names.(id) <- name;
  t.pi_list <- id :: t.pi_list;
  t.n_pis <- t.n_pis + 1;
  t.pis_memo <- None;
  Hashtbl.add t.by_pi_name name id;
  lit_of_node id false

let latch t name ~init ~reset ~is_config =
  if Hashtbl.mem t.by_latch_name name then
    invalid_arg ("Aig.latch: duplicate latch name " ^ name);
  let id = new_node t Latch in
  t.latch_recs.(id) <-
    Some { lname = name; init; reset; is_config; next = None };
  t.latch_list <- id :: t.latch_list;
  t.n_latches <- t.n_latches + 1;
  t.latches_memo <- None;
  Hashtbl.add t.by_latch_name name id;
  lit_of_node id false

let set_next t q d =
  if is_complemented q then invalid_arg "Aig.set_next: complemented latch literal";
  let id = node_of_lit q in
  match t.latch_recs.(id) with
  | None -> invalid_arg "Aig.set_next: not a latch"
  | Some r -> r.next <- Some d

(* Index of [key]'s slot in [t]'s strash, or of the empty slot where it
   would go. The first probe is the top [strash_bits] bits of a
   multiplicative hash. [probe_from] is closed (no closure per call). *)
let rec probe_from keys key i =
  let k = Array.unsafe_get keys i in
  if k = key || k = 0 then i
  else probe_from keys key ((i + 1) land (Array.length keys - 1))

let probe t key =
  probe_from t.strash_keys key ((key * 0x1f3d5b79a3c4e1d7) lsr (63 - t.strash_bits))

let strash_grow t =
  let keys = t.strash_keys and ids = t.strash_ids in
  let cap = 2 * Array.length keys in
  t.strash_keys <- Array.make cap 0;
  t.strash_ids <- Array.make cap 0;
  t.strash_bits <- t.strash_bits + 1;
  Array.iteri
    (fun i key ->
      if key <> 0 then begin
        let j = probe t key in
        t.strash_keys.(j) <- key;
        t.strash_ids.(j) <- ids.(i)
      end)
    keys

let and_ t a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = false_ then false_
  else if a = true_ then b
  else if a = b then a
  else if a = not_ b then false_
  else begin
    let key = (a lsl 31) lor b in
    let i = probe t key in
    if t.strash_keys.(i) = key then lit_of_node t.strash_ids.(i) false
    else begin
      let id = new_node t And in
      t.fan0.(id) <- a;
      t.fan1.(id) <- b;
      t.n_ands <- t.n_ands + 1;
      t.strash_keys.(i) <- key;
      t.strash_ids.(i) <- id;
      if 2 * t.n_ands > Array.length t.strash_keys then strash_grow t;
      lit_of_node id false
    end
  end

let or_ t a b = not_ (and_ t (not_ a) (not_ b))

let xor_ t a b =
  (* a ^ b = ~(~(a & ~b) & ~(~a & b)) *)
  or_ t (and_ t a (not_ b)) (and_ t (not_ a) b)

let mux_ t sel a b = or_ t (and_ t sel a) (and_ t (not_ sel) b)

let and_list t ls =
  (* Balanced reduction keeps levels logarithmic. *)
  let rec reduce = function
    | [] -> true_
    | [ x ] -> x
    | xs ->
      let rec pair = function
        | [] -> []
        | [ x ] -> [ x ]
        | x :: y :: rest -> and_ t x y :: pair rest
      in
      reduce (pair xs)
  in
  reduce ls

let or_list t ls = not_ (and_list t (List.map not_ ls))

let po t name l =
  t.po_list <- (name, l) :: t.po_list;
  t.n_pos <- t.n_pos + 1;
  t.pos_memo <- None

let kind t id =
  if id < 0 || id >= t.n then invalid_arg "Aig.kind: bad node";
  t.kinds.(id)

let num_nodes t = t.n
let num_ands t = t.n_ands
let num_pis t = t.n_pis
let num_pos t = t.n_pos
let num_latches t = t.n_latches

let fanins t id =
  if kind t id <> And then invalid_arg "Aig.fanins: not an And node";
  (t.fan0.(id), t.fan1.(id))

let pi_name t id =
  if kind t id <> Pi then invalid_arg "Aig.pi_name: not a PI";
  t.names.(id)

let latch_record t id =
  match t.latch_recs.(id) with
  | Some r -> r
  | None -> invalid_arg "Aig: not a latch"

let latch_info t id =
  let r = latch_record t id in
  (r.lname, r.init, r.reset, r.is_config)

let latch_next t id =
  match (latch_record t id).next with
  | Some d -> d
  | None -> invalid_arg "Aig.latch_next: next-state never set"

let pis t =
  match t.pis_memo with
  | Some l -> l
  | None ->
    let l = List.rev t.pi_list in
    t.pis_memo <- Some l;
    l

let latches t =
  match t.latches_memo with
  | Some l -> l
  | None ->
    let l = List.rev t.latch_list in
    t.latches_memo <- Some l;
    l

let pos t =
  match t.pos_memo with
  | Some l -> l
  | None ->
    let l = List.rev t.po_list in
    t.pos_memo <- Some l;
    l

let find_pi t name = Hashtbl.find_opt t.by_pi_name name
let find_latch t name = Hashtbl.find_opt t.by_latch_name name

let eval_all t ~pi ~latch =
  let values = Array.make t.n false in
  for id = 1 to t.n - 1 do
    match t.kinds.(id) with
    | Const -> ()
    | Pi -> values.(id) <- pi id
    | Latch -> values.(id) <- latch id
    | And ->
      let v l =
        let x = values.(node_of_lit l) in
        if is_complemented l then not x else x
      in
      values.(id) <- v t.fan0.(id) && v t.fan1.(id)
  done;
  fun l ->
    let x = values.(node_of_lit l) in
    if is_complemented l then not x else x

let cone t roots =
  let visited = Hashtbl.create 64 in
  let leaves = ref [] in
  let internal = ref [] in
  let rec visit id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match t.kinds.(id) with
      | Const -> ()
      | Pi | Latch -> leaves := id :: !leaves
      | And ->
        visit (node_of_lit t.fan0.(id));
        visit (node_of_lit t.fan1.(id));
        internal := id :: !internal
    end
  in
  List.iter (fun l -> visit (node_of_lit l)) roots;
  (List.rev !leaves, List.rev !internal)

exception Too_wide

let bounded_cone t ~cap =
  (* Node [id] is visited in the current walk iff [mark.(id) = !walk]. *)
  let mark = Array.make t.n 0 and walk = ref 0 in
  fun root ->
    incr walk;
    let w = !walk in
    let leaves = ref [] and width = ref 0 and internal = ref [] in
    let rec visit id =
      if mark.(id) <> w then begin
        mark.(id) <- w;
        match t.kinds.(id) with
        | Const -> ()
        | Pi | Latch ->
          incr width;
          if !width > cap then raise_notrace Too_wide;
          leaves := id :: !leaves
        | And ->
          visit (node_of_lit t.fan0.(id));
          visit (node_of_lit t.fan1.(id));
          internal := id :: !internal
      end
    in
    match visit root with
    | () -> Some (List.rev !leaves, List.rev !internal)
    | exception Too_wide -> None

let levels t =
  let lv = Array.make t.n 0 in
  for id = 1 to t.n - 1 do
    match t.kinds.(id) with
    | Const | Pi | Latch -> lv.(id) <- 0
    | And ->
      lv.(id) <-
        1 + max lv.(node_of_lit t.fan0.(id)) lv.(node_of_lit t.fan1.(id))
  done;
  fun id -> lv.(id)

let fanout_counts t =
  let fo = Array.make t.n 0 in
  let bump l = fo.(node_of_lit l) <- fo.(node_of_lit l) + 1 in
  for id = 1 to t.n - 1 do
    if t.kinds.(id) = And then begin
      bump t.fan0.(id);
      bump t.fan1.(id)
    end
  done;
  List.iter (fun id ->
      match (latch_record t id).next with
      | Some d -> bump d
      | None -> ())
    (latches t);
  List.iter (fun (_, l) -> bump l) (pos t);
  fo

(* The one routine that maps nodes of [g] to literals of [into]: an
   array memo filled by [preset], then on demand — [node] decides first,
   and an AND it leaves alone is re-made with [and_]. OCaml evaluates
   arguments right to left, so [copy f1] runs before [copy f0]; every
   pinned graph depends on that order. *)
let copier g ~into ~preset ~node =
  let map = Array.make g.n (-1) in
  map.(0) <- false_;
  preset (fun id l -> map.(id) <- l);
  let rec copy l =
    let id = node_of_lit l in
    if map.(id) < 0 then
      map.(id) <-
        (match node copy id with
         | Some m -> m
         | None ->
           if g.kinds.(id) <> And then invalid_arg "Aig: leaf without a copy";
           and_ into (copy g.fan0.(id)) (copy g.fan1.(id)));
    map.(id) lxor (l land 1)
  in
  copy

let copy_into g ~into ~leaf =
  let copy =
    copier g ~into ~preset:ignore ~node:(fun _ id ->
        if g.kinds.(id) = And then None else Some (leaf id))
  in
  (* Node index order is topological (fanins precede uses). *)
  for id = 1 to g.n - 1 do
    ignore (copy (lit_of_node id false))
  done;
  copy

let rebuild ?(keep_latch = fun _ -> true) ?(node = fun _ _ -> None) g ~into =
  copier g ~into ~node ~preset:(fun set ->
      List.iter (fun id -> set id (pi into g.names.(id))) (pis g);
      List.iter
        (fun id ->
          if keep_latch id then
            let r = latch_record g id in
            set id
              (latch into r.lname ~init:r.init ~reset:r.reset
                 ~is_config:r.is_config))
        (latches g))

let equal a b =
  let latch_equal ra rb =
    String.equal ra.lname rb.lname
    && ra.init = rb.init && ra.reset = rb.reset
    && ra.is_config = rb.is_config && ra.next = rb.next
  in
  let rec nodes id =
    id >= a.n
    || (a.kinds.(id) = b.kinds.(id)
        && (match a.kinds.(id) with
            | Const -> true
            | Pi -> String.equal a.names.(id) b.names.(id)
            | And -> a.fan0.(id) = b.fan0.(id) && a.fan1.(id) = b.fan1.(id)
            | Latch -> latch_equal (latch_record a id) (latch_record b id))
        && nodes (id + 1))
  in
  a.n = b.n && a.n_pos = b.n_pos && nodes 1
  && List.equal
       (fun (na, la) (nb, lb) -> String.equal na nb && la = lb)
       (pos a) (pos b)

let digest t =
  let b = Buffer.create (16 * t.n) in
  for id = 1 to t.n - 1 do
    match t.kinds.(id) with
    | Const -> ()
    | Pi -> Printf.bprintf b "i %S\n" t.names.(id)
    | And -> Printf.bprintf b "a %d %d\n" t.fan0.(id) t.fan1.(id)
    | Latch ->
      let r = latch_record t id in
      Printf.bprintf b "l %S %s %b %b %d\n" r.lname
        (Rtl.Design.reset_kind_to_string r.reset)
        r.init r.is_config
        (Option.value r.next ~default:(-1))
  done;
  List.iter (fun (name, l) -> Printf.bprintf b "o %S %d\n" name l) (pos t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let stats t =
  let lv = levels t in
  let depth =
    List.fold_left
      (fun acc (_, l) -> max acc (lv (node_of_lit l)))
      0 (pos t)
  in
  let depth =
    List.fold_left
      (fun acc id ->
        match (latch_record t id).next with
        | Some d -> max acc (lv (node_of_lit d))
        | None -> acc)
      depth (latches t)
  in
  Printf.sprintf "aig: %d PIs, %d latches, %d ANDs, %d POs, depth %d"
    t.n_pis (num_latches t) (num_ands t) t.n_pos depth
