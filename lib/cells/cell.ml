type func =
  | Comb of { arity : int; table : int }
  | Flop of Rtl.Design.reset_kind

type t = {
  cname : string;
  func : func;
  area : float;
  delay : float;
}

let make_comb cname ~arity ~table ~area ~delay =
  if arity < 1 || arity > 4 then invalid_arg "Cell.make_comb: arity out of range";
  let entries = 1 lsl arity in
  if table lsr entries <> 0 then invalid_arg "Cell.make_comb: table too wide";
  { cname; func = Comb { arity; table }; area; delay }

let make_flop cname ~reset ~area ~delay =
  { cname; func = Flop reset; area; delay }

let eval_comb c assignment =
  match c.func with
  | Comb { arity; table } ->
    if assignment < 0 || assignment >= 1 lsl arity then
      invalid_arg "Cell.eval_comb: assignment out of range";
    table lsr assignment land 1 = 1
  | Flop _ -> invalid_arg "Cell.eval_comb: sequential cell"

let is_flop c = match c.func with Flop _ -> true | Comb _ -> false
