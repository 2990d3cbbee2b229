let bits_per_limb = 62

let limbs k = ((1 lsl k) + bits_per_limb - 1) / bits_per_limb

(* The [k] leaf patterns of a [k]-leaf window: bit [i] of pattern [j] is
   bit [j] of assignment [i]. *)
let leaf_patterns k =
  let npat = 1 lsl k in
  Array.init k (fun j ->
      let arr = Array.make (limbs k) 0 in
      for i = 0 to npat - 1 do
        if i lsr j land 1 = 1 then begin
          let limb = i / bits_per_limb and bit = i mod bits_per_limb in
          arr.(limb) <- arr.(limb) lor (1 lsl bit)
        end
      done;
      arr)

(* Parallel window simulation: each cone node gets one bit per leaf
   assignment, packed into int limbs. [values] is indexed by node id and
   shared by every group of a pass: a group writes its leaves and nodes
   before it reads them, and reads nothing else. Leaf [j] takes
   [patterns.(j)] itself: nothing writes into a leaf's array. A fanin
   reads its node's limbs XORed with its complement mask (all ones when
   complemented), so no complemented copy is made; the bits above a
   window's patterns are never read. *)
let window_sim g values (patterns : int array array) (leaves : int array)
    (nodes : int array) =
  let nlimbs = limbs (Array.length leaves) in
  Array.iteri (fun j n -> values.(n) <- patterns.(j)) leaves;
  let zeros = Array.make nlimbs 0 in
  let limbs_of l =
    let n = Aig.node_of_lit l in
    if n = 0 then zeros else values.(n)
  in
  let mask l = if Aig.is_complemented l then -1 else 0 in
  Array.iter
    (fun n ->
      let f0, f1 = Aig.fanins g n in
      let a = limbs_of f0 and ma = mask f0 in
      let b = limbs_of f1 and mb = mask f1 in
      let v = Array.make nlimbs 0 in
      for i = 0 to nlimbs - 1 do
        v.(i) <- (a.(i) lxor ma) land (b.(i) lxor mb)
      done;
      values.(n) <- v)
    nodes

(* The window signature of root node [rn] after {!window_sim}: byte [m]
   is 2 where assignment [m] is a don't-care, else [rn]'s value there. *)
let signature values dc k rn =
  let v = values.(rn) in
  let s = Bytes.create (1 lsl k) in
  for m = 0 to (1 lsl k) - 1 do
    Bytes.unsafe_set s m
      (if dc m then '\002'
       else if v.(m / bits_per_limb) lsr (m mod bits_per_limb) land 1 = 1 then
         '\001'
       else '\000')
  done;
  s

(* Don't-care predicate from annotations fully contained in the leaf set:
   an assignment is DC when some annotated vector takes a disallowed value. *)
let constraint_dc (annots : Annots.t list) (leaves : int array) =
  let position = Hashtbl.create 16 in
  Array.iteri (fun j n -> Hashtbl.replace position n j) leaves;
  let applicable =
    List.filter_map
      (fun (a : Annots.t) ->
        if Annots.width a > 30 then None
        else begin
          let pos =
            Array.map (fun n -> Hashtbl.find_opt position n) a.Annots.nodes
          in
          if Array.for_all Option.is_some pos then
            Some (Array.map Option.get pos, Annots.member_table a)
          else None
        end)
      annots
  in
  if applicable = [] then fun _ -> false
  else
    fun assignment ->
      List.exists
        (fun (pos, members) ->
          let v = ref 0 in
          Array.iteri
            (fun j p -> if assignment lsr p land 1 = 1 then v := !v lor (1 lsl j))
            pos;
          not (Hashtbl.mem members !v))
        applicable

(* Shannon (mux-tree) decomposition candidate, with structural sharing of
   identical cofactors — the multi-level restructuring a real synthesis tool
   performs, and the reason direct two-level RTL converges to the same area
   as a folded table read. The function is the completely-specified one the
   espresso cover picked (DCs resolved by the cover), as a dense bit string:
   byte [m] of [resolved] is the value on assignment [m].

   Sub-functions are identified by their dense value strings; the length
   determines the variable window (vars 0 .. log2 len - 1), so the bytes
   alone are a sound memo key within one group build. *)

let is_const_bytes b =
  let c = Bytes.get b 0 in
  let n = Bytes.length b in
  let rec go i = i >= n || (Bytes.get b i = c && go (i + 1)) in
  go 1

let log2 n =
  let rec lg n acc = if n <= 1 then acc else lg (n lsr 1) (acc + 1) in
  lg n 0

(* A block of length 2^j covers variables 0..j-1; its top split is on
   variable j-1. [memo] maps sub-functions to literals of [ng], so it
   lives for one build into one graph: a scratch candidate, or the
   rebuild of one group into the output graph. *)
let tree_build ng memo leaf_lit resolved =
  let rec build b =
    if is_const_bytes b then
      if Bytes.get b 0 = '\001' then Aig.true_ else Aig.false_
    else
      match Hashtbl.find_opt memo b with
      | Some l -> l
      | None ->
        let half = Bytes.length b / 2 in
        let f0 = Bytes.sub b 0 half and f1 = Bytes.sub b half half in
        let l =
          if Bytes.equal f0 f1 then build f0
          else
            Aig.mux_ ng (leaf_lit (log2 (Bytes.length b) - 1)) (build f1) (build f0)
        in
        Hashtbl.replace memo b l;
        l
  in
  build resolved

let sop_build ng leaf_lit (cover : Twolevel.Cover.t) =
  let cube_lit (c : Twolevel.Cube.t) =
    let lits =
      List.filter_map
        (fun j ->
          if Twolevel.Cube.has_literal c j then
            Some
              (if Twolevel.Cube.literal_value c j then leaf_lit j
               else Aig.not_ (leaf_lit j))
          else None)
        (List.init cover.Twolevel.Cover.nvars Fun.id)
    in
    Aig.and_list ng lits
  in
  Aig.or_list ng (List.map cube_lit cover.Twolevel.Cover.cubes)

(* Exclusive (MFFC-approximate) size of a node set: members all of whose
   fanout stays inside the set, plus the root nodes themselves ([is_root]).
   [uses] is indexed by node id, all zero on entry, and zero again on
   return. *)
let exclusive_count g fanout uses is_root nodes =
  let update_fanins f n =
    let f0, f1 = Aig.fanins g n in
    let n0 = Aig.node_of_lit f0 and n1 = Aig.node_of_lit f1 in
    uses.(n0) <- f uses.(n0);
    uses.(n1) <- f uses.(n1)
  in
  Array.iter (update_fanins succ) nodes;
  let count =
    Array.fold_left
      (fun acc n ->
        if is_root n || fanout.(n) <= uses.(n) then acc + 1
        else acc)
      0 nodes
  in
  Array.iter (update_fanins (fun _ -> 0)) nodes;
  count

(* A root function's two-level analysis, keyed by its window signature
   [key] (the memo's own copy, which the cost keys share): its espresso
   cover, the completion that cover picks for the don't-cares, and the
   zero-fill completion. Without a don't-care both completions equal the
   signature, so all three fields are [key] itself. *)
type analysis = {
  key : Bytes.t;
  cover : Twolevel.Cover.t;
  resolved : Bytes.t;
  resolved0 : Bytes.t;
  has_dc : bool;
}

let espresso_calls = Obs.Metrics.counter "synth.collapse.espresso_calls"
let memo_hits = Obs.Metrics.counter "synth.collapse.memo_hits"

let analysis_of_signature k signature =
  (* The signature bytes are the function's codes; Espresso only reads
     them, so the memo key can be adopted as is. *)
  let tf = Twolevel.Truthfn.of_codes ~nvars:k signature in
  let cover = Twolevel.Espresso.minimize tf in
  (* The completion the cover picks: paint each cube's minterms. *)
  let resolved = Bytes.make (1 lsl k) '\000' in
  List.iter
    (Twolevel.Cube.iter_minterms ~nvars:k (fun m -> Bytes.set resolved m '\001'))
    cover.Twolevel.Cover.cubes;
  (* Invariant: the cover implements the window on every cared
     assignment. A miss would be a miscompile, so it raises. *)
  Bytes.iteri
    (fun m c ->
      if c <> '\002' && c <> Bytes.get resolved m then
        failwith
          (Printf.sprintf
             "Collapse: Espresso cover disagrees with its %d-leaf window at \
              assignment %d" k m))
    signature;
  if not (Bytes.contains signature '\002') then
    { key = signature; cover; resolved = signature; resolved0 = signature;
      has_dc = false }
  else
    (* Alternative completion: don't-cares to zero. It often shares
       better across the group's outputs (the table's own zero-fill). *)
    let resolved0 =
      Bytes.map (fun c -> if c = '\001' then '\001' else '\000') signature
    in
    { key = signature; cover; resolved; resolved0; has_dc = true }

type memo = {
  lock : Mutex.t;
  analyses : (Bytes.t, analysis) Hashtbl.t;
  costs : (Bytes.t list, int * int * int) Hashtbl.t;
}

let create_memo () =
  { lock = Mutex.create (); analyses = Hashtbl.create 64;
    costs = Hashtbl.create 64 }

let memo_find memo tbl key =
  Mutex.protect memo.lock (fun () -> Hashtbl.find_opt tbl key)

(* Misses are computed outside the lock; the first value inserted for a
   key wins, and [memo_add] returns it with whether this call inserted
   it. *)
let memo_add memo tbl key v =
  Mutex.protect memo.lock (fun () ->
      match Hashtbl.find_opt tbl key with
      | Some v' -> (v', false)
      | None ->
        Hashtbl.add tbl key v;
        (v, true))

(* Espresso runs are counted where their result enters the memo, so
   [espresso_calls] is the number of distinct signatures in the memo's
   scope and the two counters do not depend on domain scheduling. *)
let memo_analysis memo k signature =
  match memo_find memo memo.analyses signature with
  | Some a ->
    Obs.Metrics.incr memo_hits;
    a
  | None ->
    let a, inserted =
      memo_add memo memo.analyses signature (analysis_of_signature k signature)
    in
    Obs.Metrics.incr (if inserted then espresso_calls else memo_hits);
    a

(* A window of [k] leaves is a dense table of [2^k] assignments, and
   [Twolevel.Truthfn] holds at most 16 variables. *)
let max_cap = 16

let run ?(cap = 14) ?(memo = create_memo ()) ~annots g =
  if cap < 0 || cap > max_cap then
    invalid_arg
      (Printf.sprintf "Collapse.run: cap %d outside 0..%d" cap max_cap);
  (* Generated designs repeat one block per bit-slice, so thousands of
     groups compute the same few truth functions. The packed window
     simulation gives each root an exact signature (its dense
     DC/on/off string, whose length encodes the window size), and the
     analysis — espresso cover plus both completions — is a
     deterministic function of it, so it runs once per distinct
     signature in [memo]'s scope. The scratch-graph candidate costs are
     likewise a function of the group's ordered signature list. Only
     [exclusive_count] and the rebuild depend on the graph itself. *)
  let ng = Aig.create () in
  let copy = Aig.rebuild g ~into:ng in
  let root_map : (Aig.lit, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  let fanout = Aig.fanout_counts g in
  let values = Array.make (Aig.num_nodes g) [||] in
  (* [patterns.(k)] holds the leaf patterns of a [k]-leaf window, built
     on first use and shared by every group of that size. *)
  let patterns = Array.make (cap + 1) [||] in
  let patterns_of k =
    if Array.length patterns.(k) = 0 then patterns.(k) <- leaf_patterns k;
    patterns.(k)
  in
  let uses = Array.make (Aig.num_nodes g) 0 in
  (* Per-group marks indexed by node id: a node is in the current group's
     union iff [in_union.(n) = !stamp], and one of its roots iff
     [is_member.(n) = !stamp]. The union is gathered in [union_buf]. *)
  let in_union = Array.make (Aig.num_nodes g) 0 in
  let is_member = Array.make (Aig.num_nodes g) 0 in
  let stamp = ref 0 in
  let union_buf = Array.make (Aig.num_nodes g) 0 in
  let leaf_lit leaves j = copy (Aig.lit_of_node leaves.(j) false) in
  (* Gather all combinational roots (in processing order). *)
  let all_roots =
    List.map snd (Aig.pos g)
    @ List.map (fun n -> Aig.latch_next g n) (Aig.latches g)
  in
  let root_nodes =
    List.sort_uniq Int.compare (List.map Aig.node_of_lit all_roots)
    |> List.filter (fun n -> Aig.kind g n = Aig.And)
  in
  (* Group collapsible roots by their (canonically ordered) leaf set so the
     rebuild decision accounts for logic shared between the outputs of one
     block — per-root decisions would keep structures whose sharing is an
     illusion once each consumer is considered alone. A cone walk stops at
     leaf [cap + 1]: wider roots are only copied. *)
  let cone = Aig.bounded_cone g ~cap in
  let root_cones = Array.make (Aig.num_nodes g) [] in
  let groups : (int list, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  List.iter
    (fun rn ->
      match cone rn with
      | None | Some ([], _) -> ()
      | Some (leaves, nodes) ->
        let key = List.sort Int.compare leaves in
        root_cones.(rn) <- nodes;
        (match Hashtbl.find_opt groups key with
         | Some l -> l := rn :: !l
         | None ->
           Hashtbl.replace groups key (ref [ rn ]);
           group_order := key :: !group_order))
    root_nodes;
  (* Decide and rebuild each group. *)
  let process_group key =
    let members = List.rev !(Hashtbl.find groups key) in
    let leaves = Array.of_list key in
    let k = Array.length leaves in
    incr stamp;
    let s = !stamp in
    (* The members' cone nodes, each once, in increasing id order. *)
    let union_nodes =
      let len = ref 0 in
      List.iter
        (fun rn ->
          is_member.(rn) <- s;
          List.iter
            (fun n ->
              if in_union.(n) <> s then begin
                in_union.(n) <- s;
                union_buf.(!len) <- n;
                incr len
              end)
            root_cones.(rn))
        members;
      let u = Array.sub union_buf 0 !len in
      Array.stable_sort Int.compare u;
      u
    in
    window_sim g values (patterns_of k) leaves union_nodes;
    let dc = constraint_dc annots leaves in
    let analyze rn = (rn, memo_analysis memo k (signature values dc k rn)) in
    let analyzed = List.map analyze members in
    (* Exact candidate costs: build each candidate into a private scratch
       graph (with the window variables as inputs) and count strash-shared
       nodes — estimates systematically mis-predict sharing. *)
    let scratch_cost build_all =
      let sg = Aig.create () in
      let pis =
        Array.init (Array.length leaves) (fun j ->
            Aig.pi sg (Printf.sprintf "w%d" j))
      in
      build_all sg (fun j -> pis.(j));
      Aig.num_ands sg
    in
    let tree_total pick =
      scratch_cost (fun sg leaf ->
          let shared = Hashtbl.create 64 in
          List.iter
            (fun (_, a) -> ignore (tree_build sg shared leaf (pick a)))
            analyzed)
    in
    let costs_key = List.map (fun (_, a) -> a.key) analyzed in
    let total_sop, total_tree, total_tree0 =
      match memo_find memo memo.costs costs_key with
      | Some costs -> costs
      | None ->
        let total_sop =
          scratch_cost (fun sg leaf ->
              List.iter
                (fun (_, a) -> ignore (sop_build sg leaf a.cover))
                analyzed)
        in
        let total_tree = tree_total (fun a -> a.resolved) in
        (* Without a don't-care the zero-fill completion is [resolved]. *)
        let total_tree0 =
          if List.exists (fun (_, a) -> a.has_dc) analyzed then
            tree_total (fun a -> a.resolved0)
          else total_tree
        in
        fst
          (memo_add memo memo.costs costs_key
             (total_sop, total_tree, total_tree0))
    in
    let cost_old =
      exclusive_count g fanout uses (fun n -> is_member.(n) = s) union_nodes
    in
    let best = min total_sop (min total_tree total_tree0) in
    if best < cost_old then begin
      if best = total_sop then
        List.iter
          (fun (rn, a) ->
            Hashtbl.replace root_map (Aig.lit_of_node rn false)
              (sop_build ng (leaf_lit leaves) a.cover))
          analyzed
      else begin
        let pick =
          if best = total_tree then fun a -> a.resolved else fun a -> a.resolved0
        in
        let shared = Hashtbl.create 64 in
        List.iter
          (fun (rn, a) ->
            Hashtbl.replace root_map (Aig.lit_of_node rn false)
              (tree_build ng shared (leaf_lit leaves) (pick a)))
          analyzed
      end
    end
  in
  List.iter process_group (List.rev !group_order);
  let resolve_root r =
    let rn = Aig.node_of_lit r in
    match Hashtbl.find_opt root_map (Aig.lit_of_node rn false) with
    | Some l -> if Aig.is_complemented r then Aig.not_ l else l
    | None -> copy r
  in
  List.iter (fun (name, l) -> Aig.po ng name (resolve_root l)) (Aig.pos g);
  List.iter
    (fun n ->
      Aig.set_next ng (copy (Aig.lit_of_node n false)) (resolve_root (Aig.latch_next g n)))
    (Aig.latches g);
  ng
