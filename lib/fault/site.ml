type t =
  | No_fault
  | Table_bit of { table : string; entry : int; bit : int }
  | Reg_bit of { reg : string; bit : int; cycle : int }
  | Stuck_at of { node : int; value : bool }

let key = function
  | No_fault -> "none"
  | Table_bit { table; entry; bit } ->
    Printf.sprintf "table:%s:%d:%d" table entry bit
  | Reg_bit { reg; bit; cycle } -> Printf.sprintf "reg:%s:%d@%d" reg bit cycle
  | Stuck_at { node; value } ->
    Printf.sprintf "stuck:%d:%d" node (if value then 1 else 0)

let table_sites (d : Rtl.Design.t) ~config =
  (* Only configuration memories count: their bits live in real storage
     after fabrication. ROM tables are folded into fixed logic by synthesis
     and have no per-bit state to upset. *)
  List.concat_map
    (fun (t : Rtl.Design.table) ->
      match t.storage with
      | Rtl.Design.Rom _ -> []
      | Rtl.Design.Config ->
        (match List.assoc_opt t.tname config with
         | None -> []
         | Some contents ->
           List.concat
             (List.init (Array.length contents) (fun entry ->
                  List.init t.twidth (fun bit ->
                      Table_bit { table = t.tname; entry; bit })))))
    d.Rtl.Design.tables

let reg_sites (d : Rtl.Design.t) ~cycles ~rng =
  List.concat_map
    (fun (r : Rtl.Design.reg) ->
      let name = r.q.Rtl.Signal.name in
      List.init r.q.Rtl.Signal.width (fun bit ->
          let cycle = if cycles <= 1 then 0 else Workload.Rng.int rng cycles in
          Reg_bit { reg = name; bit; cycle }))
    d.Rtl.Design.regs

let stuck_sites aig =
  List.concat_map
    (fun node ->
      match Aig.kind aig node with
      | Aig.And ->
        [ Stuck_at { node; value = false }; Stuck_at { node; value = true } ]
      | Aig.Const | Aig.Pi | Aig.Latch -> [])
    (List.init (Aig.num_nodes aig) Fun.id)

let sample rng ~count sites =
  if count <= 0 || count >= List.length sites then sites
  else Workload.Rng.subset rng ~size:count sites
