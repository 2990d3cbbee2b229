type value = Off | On | Dc

type t = { nvars : int; cells : Bytes.t }

let code = function Off -> '\000' | On -> '\001' | Dc -> '\002'

let value_of_code = function
  | '\000' -> Off
  | '\001' -> On
  | '\002' -> Dc
  | _ -> assert false

let create ~nvars v =
  if nvars < 0 || nvars > 16 then invalid_arg "Truthfn.create: nvars out of range";
  { nvars; cells = Bytes.make (1 lsl nvars) (code v) }

let nvars t = t.nvars
let size t = Bytes.length t.cells

let get t m = value_of_code (Bytes.get t.cells m)
let set t m v = Bytes.set t.cells m (code v)

let of_fun ~nvars f =
  let t = create ~nvars Off in
  for m = 0 to size t - 1 do
    set t m (f m)
  done;
  t

let filter_set t v =
  List.filter (fun m -> get t m = v) (List.init (size t) Fun.id)

let on_set t = filter_set t On
let dc_set t = filter_set t Dc
let cube_within t c =
  not
    (Cube.exists_minterm ~nvars:t.nvars
       (fun m -> Bytes.get t.cells m = '\000')
       c)

let cover_agrees t cubes =
  let covered m = List.exists (fun c -> Cube.covers_minterm c m) cubes in
  let ok m =
    match get t m with
    | On -> covered m
    | Off -> not (covered m)
    | Dc -> true
  in
  List.for_all ok (List.init (size t) Fun.id)
