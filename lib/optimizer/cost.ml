type range_method = Plain | Skip

type range_alternative = { method_ : range_method }
