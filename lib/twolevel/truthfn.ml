type value = Off | On | Dc

type t = { nvars : int; cells : Bytes.t }

let code = function Off -> '\000' | On -> '\001' | Dc -> '\002'

let check_nvars fn nvars =
  if nvars < 0 || nvars > 16 then invalid_arg (fn ^ ": nvars out of range")

let create ~nvars v =
  check_nvars "Truthfn.create" nvars;
  { nvars; cells = Bytes.make (1 lsl nvars) (code v) }

let of_codes ~nvars cells =
  check_nvars "Truthfn.of_codes" nvars;
  if Bytes.length cells <> 1 lsl nvars then
    invalid_arg "Truthfn.of_codes: length is not 2^nvars";
  { nvars; cells }

let nvars t = t.nvars
let size t = Bytes.length t.cells

let is_on t m = Bytes.get t.cells m = '\001'
let set t m v = Bytes.set t.cells m (code v)

let of_fun ~nvars f =
  let t = create ~nvars Off in
  for m = 0 to size t - 1 do
    set t m (f m)
  done;
  t

let filter_set t v =
  let c = code v in
  let acc = ref [] in
  for m = size t - 1 downto 0 do
    if Bytes.get t.cells m = c then acc := m :: !acc
  done;
  !acc

let on_set t = filter_set t On
let dc_set t = filter_set t Dc
let cube_within t c =
  not
    (Cube.exists_minterm ~nvars:t.nvars
       (fun m -> Bytes.get t.cells m = '\000')
       c)

let cover_agrees t cubes =
  let covered m = List.exists (fun c -> Cube.covers_minterm c m) cubes in
  let rec ok m =
    m >= size t
    || (match Bytes.get t.cells m with
        | '\000' -> not (covered m)
        | '\001' -> covered m
        | _ -> true)
       && ok (m + 1)
  in
  ok 0
