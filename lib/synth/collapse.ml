let bits_per_limb = 62

(* Parallel window simulation: each cone node gets one bit per leaf
   assignment, packed into int limbs. *)
let window_sim g (leaves : int array) (nodes : int list) =
  let k = Array.length leaves in
  let npat = 1 lsl k in
  let nlimbs = (npat + bits_per_limb - 1) / bits_per_limb in
  let values : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let leaf_pattern j =
    let arr = Array.make nlimbs 0 in
    for i = 0 to npat - 1 do
      if i lsr j land 1 = 1 then begin
        let limb = i / bits_per_limb and bit = i mod bits_per_limb in
        arr.(limb) <- arr.(limb) lor (1 lsl bit)
      end
    done;
    arr
  in
  Array.iteri (fun j n -> Hashtbl.replace values n (leaf_pattern j)) leaves;
  let value_of_lit l =
    let n = Aig.node_of_lit l in
    let arr =
      if n = 0 then Array.make nlimbs 0 else Hashtbl.find values n
    in
    if Aig.is_complemented l then Array.map lnot arr else arr
  in
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins g n in
      let a = value_of_lit f0 and b = value_of_lit f1 in
      Hashtbl.replace values n (Array.init nlimbs (fun i -> a.(i) land b.(i))))
    nodes;
  fun l ->
    let arr = value_of_lit l in
    fun i ->
      arr.(i / bits_per_limb) lsr (i mod bits_per_limb) land 1 = 1

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
   fanout stays inside the set, plus the root nodes themselves. *)
let exclusive_count g fanout root_nodes nodes =
  let uses = Hashtbl.create 64 in
  let bump l =
    let n = Aig.node_of_lit l in
    Hashtbl.replace uses n (1 + Option.value ~default:0 (Hashtbl.find_opt uses n))
  in
  List.iter
    (fun n ->
      let f0, f1 = Aig.fanins g n in
      bump f0; bump f1)
    nodes;
  List.fold_left
    (fun acc n ->
      if List.mem n root_nodes then acc + 1
      else begin
        let used_here = Option.value ~default:0 (Hashtbl.find_opt uses n) in
        if fanout.(n) <= used_here then acc + 1 else acc
      end)
    0 nodes

(* A root function's two-level analysis: its espresso cover, the
   completion that cover picks for the don't-cares, and the zero-fill
   completion. *)
type analysis = { cover : Twolevel.Cover.t; resolved : Bytes.t; resolved0 : Bytes.t }

let espresso_calls = Obs.Metrics.counter "synth.collapse.espresso_calls"
let memo_hits = Obs.Metrics.counter "synth.collapse.memo_hits"

let run ?(cap = 14) ~annots g =
  (* Generated designs repeat one block per bit-slice, so thousands of
     groups compute the same few truth functions. The packed window
     simulation gives each root an exact signature (its dense
     DC/on/off string, whose length encodes the window size), and the
     analysis — espresso cover plus both completions — is a
     deterministic function of it, so it runs once per distinct
     signature in the pass. The scratch-graph candidate costs are
     likewise a function of the group's ordered signature list. Only
     [exclusive_count] and the rebuild depend on the graph itself. *)
  let an_memo : (Bytes.t, analysis) Hashtbl.t = Hashtbl.create 64 in
  let cost_memo : (Bytes.t list, int * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let ng = Aig.create () in
  let node_map : (int, Aig.lit) Hashtbl.t = Hashtbl.create 1024 in
  Hashtbl.replace node_map 0 Aig.false_;
  List.iter
    (fun n -> Hashtbl.replace node_map n (Aig.pi ng (Aig.pi_name g n)))
    (Aig.pis g);
  List.iter
    (fun n ->
      let name, init, reset, is_config = Aig.latch_info g n in
      Hashtbl.replace node_map n (Aig.latch ng name ~init ~reset ~is_config))
    (Aig.latches g);
  let rec copy_node n =
    match Hashtbl.find_opt node_map n with
    | Some l -> l
    | None ->
      let f0, f1 = Aig.fanins g n in
      let l = Aig.and_ ng (copy_lit f0) (copy_lit f1) in
      Hashtbl.replace node_map n l;
      l
  and copy_lit l =
    let nl = copy_node (Aig.node_of_lit l) in
    if Aig.is_complemented l then Aig.not_ nl else nl
  in
  let root_map : (Aig.lit, Aig.lit) Hashtbl.t = Hashtbl.create 64 in
  let fanout = Aig.fanout_counts g in
  let leaf_lit leaves j =
    match Hashtbl.find_opt node_map leaves.(j) with
    | Some l -> l
    | None -> assert false
  in
  (* Gather all combinational roots (in processing order). *)
  let all_roots =
    List.map snd (Aig.pos g)
    @ List.map (fun n -> Aig.latch_next g n) (Aig.latches g)
  in
  let root_nodes =
    List.sort_uniq Stdlib.compare (List.map Aig.node_of_lit all_roots)
    |> List.filter (fun n -> Aig.kind g n = Aig.And)
  in
  (* Group collapsible roots by their (canonically ordered) leaf set so the
     rebuild decision accounts for logic shared between the outputs of one
     block — per-root decisions would keep structures whose sharing is an
     illusion once each consumer is considered alone. *)
  let root_cones = Hashtbl.create 64 in
  List.iter
    (fun rn ->
      let leaves, nodes = Aig.cone g [ Aig.lit_of_node rn false ] in
      let leaves = Array.of_list (List.sort Stdlib.compare leaves) in
      Hashtbl.replace root_cones rn (leaves, nodes))
    root_nodes;
  let groups : (int list, int list ref) Hashtbl.t = Hashtbl.create 16 in
  let group_order = ref [] in
  List.iter
    (fun rn ->
      let leaves, _ = Hashtbl.find root_cones rn in
      let k = Array.length leaves in
      if k > 0 && k <= cap then begin
        let key = Array.to_list leaves in
        match Hashtbl.find_opt groups key with
        | Some l -> l := rn :: !l
        | None ->
          Hashtbl.replace groups key (ref [ rn ]);
          group_order := key :: !group_order
      end)
    root_nodes;
  (* Decide and rebuild each group. *)
  let process_group key =
    let members = List.rev !(Hashtbl.find groups key) in
    let leaves = Array.of_list key in
    let k = Array.length leaves in
    let union_nodes =
      List.sort_uniq Stdlib.compare
        (List.concat_map (fun rn -> snd (Hashtbl.find root_cones rn)) members)
    in
    let read =
      window_sim g leaves union_nodes
    in
    let dc = constraint_dc annots leaves in
    let analyze rn =
      let read_root = read (Aig.lit_of_node rn false) in
      let signature =
        Bytes.init (1 lsl k) (fun m ->
            if dc m then '\002' else if read_root m then '\001' else '\000')
      in
      match Hashtbl.find_opt an_memo signature with
      | Some a ->
        Obs.Metrics.incr memo_hits;
        (rn, signature, a)
      | None ->
        Obs.Metrics.incr espresso_calls;
        let tf =
          Twolevel.Truthfn.of_fun ~nvars:k (fun m ->
              match Bytes.get signature m with
              | '\002' -> Twolevel.Truthfn.Dc
              | '\001' -> Twolevel.Truthfn.On
              | _ -> Twolevel.Truthfn.Off)
        in
        let cover = Twolevel.Espresso.minimize tf in
        let resolved =
          Bytes.init (1 lsl k) (fun m ->
              if Twolevel.Cover.eval cover m then '\001' else '\000')
        in
        (* Invariant: the cover implements the window on every cared
           assignment. A miss would be a miscompile, so it raises. *)
        Bytes.iteri
          (fun m c ->
            if c <> '\002' && c <> Bytes.get resolved m then
              failwith
                (Printf.sprintf
                   "Collapse: Espresso cover disagrees with its %d-leaf \
                    window at assignment %d" k m))
          signature;
        (* Alternative completion: don't-cares to zero. It often shares
           better across the group's outputs (the table's own zero-fill). *)
        let resolved0 =
          Bytes.map (fun c -> if c = '\001' then '\001' else '\000') signature
        in
        let a = { cover; resolved; resolved0 } in
        Hashtbl.replace an_memo signature a;
        (rn, signature, a)
    in
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
          let memo = Hashtbl.create 64 in
          List.iter
            (fun (_, _, a) -> ignore (tree_build sg memo leaf (pick a)))
            analyzed)
    in
    let costs_key = List.map (fun (_, signature, _) -> signature) analyzed in
    let total_sop, total_tree, total_tree0 =
      match Hashtbl.find_opt cost_memo costs_key with
      | Some costs -> costs
      | None ->
        let total_sop =
          scratch_cost (fun sg leaf ->
              List.iter
                (fun (_, _, a) -> ignore (sop_build sg leaf a.cover))
                analyzed)
        in
        let total_tree = tree_total (fun a -> a.resolved) in
        let total_tree0 = tree_total (fun a -> a.resolved0) in
        let costs = (total_sop, total_tree, total_tree0) in
        Hashtbl.replace cost_memo costs_key costs;
        costs
    in
    let cost_old = exclusive_count g fanout members union_nodes in
    let best = min total_sop (min total_tree total_tree0) in
    if best < cost_old then begin
      if best = total_sop then
        List.iter
          (fun (rn, _, a) ->
            Hashtbl.replace root_map (Aig.lit_of_node rn false)
              (sop_build ng (leaf_lit leaves) a.cover))
          analyzed
      else begin
        let pick =
          if best = total_tree then fun a -> a.resolved else fun a -> a.resolved0
        in
        let memo = Hashtbl.create 64 in
        List.iter
          (fun (rn, _, a) ->
            Hashtbl.replace root_map (Aig.lit_of_node rn false)
              (tree_build ng memo (leaf_lit leaves) (pick a)))
          analyzed
      end
    end
  in
  List.iter process_group (List.rev !group_order);
  let resolve_root r =
    let rn = Aig.node_of_lit r in
    match Hashtbl.find_opt root_map (Aig.lit_of_node rn false) with
    | Some l -> if Aig.is_complemented r then Aig.not_ l else l
    | None -> copy_lit r
  in
  List.iter (fun (name, l) -> Aig.po ng name (resolve_root l)) (Aig.pos g);
  List.iter
    (fun n ->
      let d = Aig.latch_next g n in
      let q' = Hashtbl.find node_map n in
      Aig.set_next ng q' (resolve_root d))
    (Aig.latches g);
  ng
