(* Byte-exact fixtures for text emitters. Dune copies [golden/*] (declared
   as deps in test/dune) next to the test executables in
   [_build/default/test], and fixtures are looked up there, so a suite
   finds them whatever its cwd. Setting GOLDEN_REGEN to the absolute path
   of the source golden directory rewrites the fixtures instead of
   diffing — [scripts/regen-golden.sh] does exactly that. *)

let regen_dir = Sys.getenv_opt "GOLDEN_REGEN"
let test_dir = Filename.dirname Sys.executable_name

let first_diff_line expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go n = function
    | e :: es, a :: as_ when String.equal e a -> go (n + 1) (es, as_)
    | e :: _, a :: _ -> Printf.sprintf "line %d:\n  golden: %s\n  actual: %s" n e a
    | e :: _, [] -> Printf.sprintf "line %d:\n  golden: %s\n  actual: <eof>" n e
    | [], a :: _ -> Printf.sprintf "line %d:\n  golden: <eof>\n  actual: %s" n a
    | [], [] -> "identical?"
  in
  go 1 (e, a)

let check name actual =
  match regen_dir with
  | Some dir ->
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        output_string oc actual)
  | None ->
    let path = Filename.concat (Filename.concat test_dir "golden") name in
    let expected =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error _ ->
        Alcotest.failf
          "missing golden file %s — run the suite through `dune test`, which \
           copies test/golden there"
          path
    in
    if not (String.equal expected actual) then begin
      let kept = Filename.concat test_dir (name ^ ".actual") in
      Out_channel.with_open_text kept (fun oc -> output_string oc actual);
      Alcotest.failf
        "golden mismatch for test/golden/%s (first difference at %s)\n\
        \  actual output kept in %s\n\
        \  if the change is intended: bash scripts/regen-golden.sh" name
        (first_diff_line expected actual)
        kept
    end
