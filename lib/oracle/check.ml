type t = { name : string; ok : bool; detail : string }

let passed checks = checks <> [] && List.for_all (fun c -> c.ok) checks

let pp ppf checks =
  let width =
    List.fold_left (fun w c -> max w (String.length c.name)) 0 checks
  in
  List.iter
    (fun c ->
      Format.fprintf ppf "  %-6s %-*s  %s@."
        (if c.ok then "[ok]" else "[FAIL]")
        width c.name c.detail)
    checks
