type opcode =
  | Nop
  | Read_line
  | Write_line
  | Copy_line
  | Evict
  | Unc_read
  | Unc_write
  | Sync

let opcode_bits = 3

let encode_opcode = function
  | Nop -> 0
  | Read_line -> 1
  | Write_line -> 2
  | Copy_line -> 3
  | Evict -> 4
  | Unc_read -> 5
  | Unc_write -> 6
  | Sync -> 7

let decode_opcode v =
  match v land 7 with
  | 0 -> Nop
  | 1 -> Read_line
  | 2 -> Write_line
  | 3 -> Copy_line
  | 4 -> Evict
  | 5 -> Unc_read
  | 6 -> Unc_write
  | _ -> Sync

let cmd_bits = 3
let cmd_idle = 0
let cmd_read = 1
let cmd_write = 2
let cmd_line_read = 3
let cmd_line_write = 4
