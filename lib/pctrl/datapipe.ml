let out_mem_en = 0
let out_mem_we = 1
let out_cnt_en = 2
let out_buf_we = 3
let out_done = 4
let out_busy = 5
let num_outputs = 6

let num_inputs = 4 (* cmd[2:0], rdy *)

let input_assignment ~cmd ~rdy = (cmd land 7) lor (if rdy then 8 else 0)

let states =
  [| "IDLE"; "RREQ"; "RXFER"; "RSTREAM"; "RLAST"; "WREQ"; "WXFER"; "WSTREAM";
     "WLAST"; "DONE" |]

let index name =
  let rec find i = if states.(i) = name then i else find (i + 1) in
  find 0

let streaming_states = [ "RSTREAM"; "RLAST"; "WSTREAM"; "WLAST" ]

let fsm =
  let s = index in
  let next_of state cmd rdy =
    match state with
    | "IDLE" ->
      if cmd = Protocol.cmd_read || cmd = Protocol.cmd_line_read then s "RREQ"
      else if cmd = Protocol.cmd_write || cmd = Protocol.cmd_line_write then
        s "WREQ"
      else s "IDLE"
    | "RREQ" ->
      if not rdy then s "RREQ"
      else if cmd = Protocol.cmd_line_read then s "RSTREAM"
      else s "RXFER"
    | "RXFER" -> s "DONE"
    | "RSTREAM" -> if cmd = Protocol.cmd_line_read then s "RSTREAM" else s "RLAST"
    | "RLAST" -> s "DONE"
    | "WREQ" ->
      if not rdy then s "WREQ"
      else if cmd = Protocol.cmd_line_write then s "WSTREAM"
      else s "WXFER"
    | "WXFER" -> s "DONE"
    | "WSTREAM" ->
      if cmd = Protocol.cmd_line_write then s "WSTREAM" else s "WLAST"
    | "WLAST" -> s "DONE"
    | "DONE" -> s "IDLE"
    | _ -> assert false
  in
  let out_bits name =
    let bits = function
      | "IDLE" -> []
      | "RREQ" -> [ out_mem_en; out_busy ]
      | "RXFER" -> [ out_mem_en; out_buf_we; out_busy ]
      | "RSTREAM" -> [ out_mem_en; out_buf_we; out_cnt_en; out_busy ]
      | "RLAST" -> [ out_buf_we; out_busy ]
      | "WREQ" -> [ out_mem_en; out_mem_we; out_busy ]
      | "WXFER" -> [ out_mem_en; out_mem_we; out_busy ]
      | "WSTREAM" -> [ out_mem_en; out_mem_we; out_cnt_en; out_busy ]
      | "WLAST" -> [ out_mem_we; out_busy ]
      | "DONE" -> [ out_done ]
      | _ -> assert false
    in
    List.fold_left
      (fun acc b -> Bitvec.set acc b true)
      (Bitvec.zero num_outputs) (bits name)
  in
  let cols = 1 lsl num_inputs in
  let next =
    Array.map
      (fun name ->
        Array.init cols (fun i ->
            next_of name (i land 7) (i lsr 3 land 1 = 1)))
      states
  in
  let moore_out = Array.map out_bits states in
  let out = Array.map (fun v -> Array.make cols v) moore_out in
  Core.Fsm_ir.make ~name:"dpipe" ~num_inputs ~num_outputs ~states ~reset:0
    ~next ~out

let reachable_states_for_cmds cmds =
  let cmds = List.sort_uniq Stdlib.compare (Protocol.cmd_idle :: cmds) in
  let inputs =
    List.concat_map
      (fun cmd ->
        [ input_assignment ~cmd ~rdy:false; input_assignment ~cmd ~rdy:true ])
      cmds
  in
  Core.Fsm_ir.reachable_with fsm ~inputs
