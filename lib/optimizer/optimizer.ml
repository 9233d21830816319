type stats = unit

let choose_plan () plan = (Sqp_relalg.Plan.optimize plan, [])
