# Revised model: the direct Motivation -> Performance path is gone
# (non-significant) and Teaching Strategies gains Motivation and Attitude
# as direct causes.
var X1 "Motivation"
var X2 "Attitude Towards Mathematics"
var X3 "Learning Style"
var X4 "Teaching Strategies"
var Y "Mathematics Performance"
path X1 -> X2
path X1 -> X3
path X2 -> X3
path X1 -> X4
path X2 -> X4
path X3 -> X4
path X2 -> Y
path X3 -> Y
path X4 -> Y
