type t = { lib_name : string; cells : Cell.t list }

let vt90 =
  let c = Cell.make_comb and f = Cell.make_flop in
  {
    lib_name = "vt90";
    cells =
      [
        c "INV" ~arity:1 ~table:0b01 ~area:2.82 ~delay:0.020;
        c "NAND2" ~arity:2 ~table:0b0111 ~area:3.76 ~delay:0.030;
        c "NOR2" ~arity:2 ~table:0b0001 ~area:3.76 ~delay:0.035;
        c "AND2" ~arity:2 ~table:0b1000 ~area:4.70 ~delay:0.045;
        c "OR2" ~arity:2 ~table:0b1110 ~area:4.70 ~delay:0.050;
        c "XOR2" ~arity:2 ~table:0b0110 ~area:7.52 ~delay:0.060;
        c "XNOR2" ~arity:2 ~table:0b1001 ~area:7.52 ~delay:0.060;
        (* inputs: a (sel=0 branch), b (sel=1 branch), s *)
        c "MUX2" ~arity:3 ~table:0b11001010 ~area:8.46 ~delay:0.055;
        c "AOI21" ~arity:3 ~table:0b00000111 ~area:5.64 ~delay:0.040;
        c "OAI21" ~arity:3 ~table:0b00011111 ~area:5.64 ~delay:0.040;
        c "NAND3" ~arity:3 ~table:0b01111111 ~area:4.70 ~delay:0.040;
        c "NOR3" ~arity:3 ~table:0b00000001 ~area:4.70 ~delay:0.050;
        f "DFF" ~reset:Rtl.Design.No_reset ~area:20.68 ~delay:0.150;
        f "SDFF" ~reset:Rtl.Design.Sync_reset ~area:23.50 ~delay:0.160;
        f "ADFF" ~reset:Rtl.Design.Async_reset ~area:26.32 ~delay:0.170;
      ];
  }

let find t name = List.find (fun (c : Cell.t) -> c.cname = name) t.cells

let flop t reset =
  List.find
    (fun (c : Cell.t) ->
      match c.func with
      | Cell.Flop r -> r = reset
      | Cell.Comb _ -> false)
    t.cells
